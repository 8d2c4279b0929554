"""Slot allocation: counting rules and physical assignment."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import anchors, slot
from picksim import (
    AllocationRule,
    Equipment,
    InputDataError,
    allocate_slots,
    assign_physical_slots,
)

EQ = Equipment(90.0, 30.0, 3.0)


# -- counting -------------------------------------------------------------


def test_homogeneous_three_products_ten_slots():
    counts = allocate_slots({"A": 50.0, "B": 30.0, "C": 20.0}, 10,
                            AllocationRule.HOMOGENEOUS)
    # demand is ignored: equal shares, earlier codes take the remainder
    assert counts == {"A": 4, "B": 3, "C": 3}


def test_demand_based_hand_traced_example():
    counts = allocate_slots({"A": 50.0, "B": 30.0, "C": 20.0}, 10,
                            AllocationRule.DEMAND_BASED)
    assert counts == {"A": 5, "B": 3, "C": 2}


def test_equal_demand_five_products_ten_slots():
    counts = allocate_slots({f"P{i}": 7.0 for i in range(5)}, 10,
                            AllocationRule.DEMAND_BASED)
    assert all(v == 2 for v in counts.values())


def test_zero_demand_product_still_gets_one_slot():
    counts = allocate_slots({"A": 10.0, "B": 0.0}, 5, AllocationRule.DEMAND_BASED)
    assert counts == {"A": 4, "B": 1}


def test_fewer_slots_than_products_is_an_error():
    with pytest.raises(InputDataError, match="cannot cover"):
        allocate_slots({"A": 1.0, "B": 1.0, "C": 1.0}, 2, AllocationRule.HOMOGENEOUS)
    with pytest.raises(InputDataError, match="empty product"):
        allocate_slots({}, 2, AllocationRule.HOMOGENEOUS)
    with pytest.raises(InputDataError, match="negative demand"):
        allocate_slots({"A": -1.0}, 2, AllocationRule.DEMAND_BASED)


@settings(max_examples=60, deadline=None)
@given(
    demands=st.dictionaries(
        st.from_regex(r"P[0-9]{3}", fullmatch=True),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=1, max_size=200),
    extra=st.integers(min_value=0, max_value=300),
    rule=st.sampled_from(list(AllocationRule)),
)
def test_allocation_properties(demands, extra, rule):
    n_slots = len(demands) + extra
    counts = allocate_slots(demands, n_slots, rule)
    assert set(counts) == set(demands)
    assert sum(counts.values()) == n_slots
    assert all(v >= 1 for v in counts.values())
    if rule is AllocationRule.HOMOGENEOUS:
        assert max(counts.values()) - min(counts.values()) <= 1
    else:
        # strictly higher demand never ends up with fewer slots
        for a, b in itertools.combinations(demands, 2):
            if demands[a] > demands[b]:
                assert counts[a] >= counts[b]
            elif demands[b] > demands[a]:
                assert counts[b] >= counts[a]


def _allocate_by_scan(avg_picks, n_slots, rule):
    """Reference: each extra slot goes to the ``min`` of ``(-(demand/slots),
    code)`` over every product, scanned afresh per slot."""
    demand = {code: (1.0 if rule is AllocationRule.HOMOGENEOUS else float(picks))
              for code, picks in avg_picks.items()}
    counts = {code: 1 for code in demand}
    for _ in range(n_slots - len(counts)):
        winner = min(demand, key=lambda c: (-(demand[c] / counts[c]), c))
        counts[winner] += 1
    return counts


@settings(max_examples=100, deadline=None)
@given(
    demands=st.dictionaries(
        st.from_regex(r"P[0-9]{2}", fullmatch=True),
        # small whole numbers tie often, also as ratios (2/2 == 1/1); zeros tie too
        st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 6.0]),
                  st.floats(min_value=0.0, max_value=1e4, allow_nan=False)),
        min_size=1, max_size=40),
    data=st.data(),
    rule=st.sampled_from(list(AllocationRule)),
)
def test_allocation_matches_the_scan(demands, data, rule):
    n_slots = data.draw(st.integers(len(demands), 3 * len(demands)), label="n_slots")
    counts = allocate_slots(demands, n_slots, rule)
    assert list(counts.items()) == list(_allocate_by_scan(demands, n_slots, rule).items())


def test_demand_based_is_exchange_optimal_small():
    """No single slot move can help a higher-pressure product (<= 6 products)."""
    demands = {"A": 41.0, "B": 17.0, "C": 9.0, "D": 9.0, "E": 3.0, "F": 1.0}
    n_slots = 17
    counts = allocate_slots(demands, n_slots, AllocationRule.DEMAND_BASED)
    assert sum(counts.values()) == n_slots
    # moving one slot from donor to receiver must not raise the minimum
    # pressure ratio (demand per slot) the donor ends up with
    for donor, receiver in itertools.permutations(demands, 2):
        if counts[donor] <= 1:
            continue
        before = max(demands[donor] / counts[donor],
                     demands[receiver] / counts[receiver])
        after = max(demands[donor] / (counts[donor] - 1),
                    demands[receiver] / (counts[receiver] + 1))
        assert after >= before - 1e-9, (
            f"moving a slot {donor}->{receiver} lowers the worst pressure"
        )


# -- physical assignment --------------------------------------------------


def _line_of_slots(n):
    return [slot(0, 1, i, 100.0 + 50.0 * i, 100.0, seq=i + 1) for i in range(n)]


def test_assignment_serves_high_demand_first_nearest_first():
    slots = _line_of_slots(4)
    entrance = anchors()[0]
    counts = {"HI": 2, "LO": 2}
    slot_map = assign_physical_slots(counts, slots, {"HI": 90.0, "LO": 10.0},
                                     entrance, EQ)
    assert slot_map["HI"] == [(0, 1, 0), (0, 1, 1)]
    assert slot_map["LO"] == [(0, 1, 2), (0, 1, 3)]


def test_assignment_travel_tie_breaks_by_route_position():
    # two slots equidistant from the entrance but with different seq_no
    slots = [
        slot(0, 1, 0, 100.0, 200.0, seq=5),
        slot(0, 1, 1, 200.0, 100.0, seq=2),
    ]
    entrance = anchors()[0]
    slot_map = assign_physical_slots({"A": 1, "B": 1}, slots,
                                     {"A": 2.0, "B": 1.0}, entrance, EQ)
    assert slot_map["A"] == [(0, 1, 1)]  # same travel, lower seq wins


def test_assignment_is_exhaustive_and_disjoint():
    slots = _line_of_slots(9)
    counts = {"A": 4, "B": 3, "C": 2}
    slot_map = assign_physical_slots(counts, slots, {"A": 3.0, "B": 2.0, "C": 1.0},
                                     anchors()[0], EQ)
    claimed = [lid for lids in slot_map.values() for lid in lids]
    assert len(claimed) == len(set(claimed)) == 9
    assert {len(v) for v in slot_map.values()} == {4, 3, 2}


def test_assignment_overflow_is_an_error():
    with pytest.raises(InputDataError, match="available"):
        assign_physical_slots({"A": 3}, _line_of_slots(2), {"A": 1.0},
                              anchors()[0], EQ)
