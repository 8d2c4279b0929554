"""The storage and stock indices agree with brute-force scans.

Random sequences of placements, picks and put-aways run against all
three storage policies.  After every step, the vacancy counter of each
item's candidate set and its ``nearest_vacant`` must equal a scan of its
``candidate_slots``,
``total_on_hand`` must equal the sum of the item's pallet records,
``restock_choice`` must equal the least ``(on_hand, code)`` over the
items with a vacant candidate slot, ``fifo_lot`` must be the item's
record with the least ``(mfg_date, seq_no)``, and no slot may sit in two
candidate sets.  Placements and put-aways draw their manufacturing date
from a small set, so lots arrive out of date order and dates tie.  A
put-away places a full pallet; partial pallets still come from placement
steps.  A step may put away into an item's candidate set until it is
full, the fixed slot map leaves some slots to no item, some runs stock
the warehouse before the policy exists, and a step may build a fresh
policy over the stocked warehouse mid-run.
"""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ELEVATOR, anchors, make_item, slot
from picksim import (
    Equipment,
    InputDataError,
    PalletRecord,
    PolicyKind,
    SimConfig,
    StoragePolicy,
    Warehouse,
    aisle_turns,
    place_initial,
    travel_time,
)

CFG = SimConfig()
MFG = date(2024, 5, 1)
DATES = (date(2024, 4, 30), MFG, date(2024, 5, 2))
CODES = ("A", "B", "C")


def _world() -> tuple[Warehouse, list]:
    """Three rows of four slots on two levels; rows alternate zones."""
    slots = []
    for r in range(3):
        for s in range(4):
            slots.append(slot(r, s % 2, s, 300.0 + 400.0 * r, 100.0 + 150.0 * (s // 2),
                              z=120.0 * (s % 2), zone=("Z1", "Z2")[r % 2],
                              seq=4 * r + s))
    items = [make_item("A", zone="Z1", qpp=6), make_item("B", zone="Z2", qpp=6),
             make_item("C", zone="Z1", qpp=6)]
    return Warehouse(anchors() + slots, items), slots


def _slot_map(slots) -> dict:
    # disjoint; slots 4, 8 and 10 belong to no item
    return {"A": [slots[0].id, slots[5].id, slots[9].id],
            "B": [slots[6].id, slots[2].id],
            "C": [slots[3].id, slots[7].id, slots[11].id, slots[1].id]}


def _policy(kind: PolicyKind, wh: Warehouse, slots) -> StoragePolicy:
    slot_map = _slot_map(slots) if kind is PolicyKind.FIXED else None
    return StoragePolicy(kind, wh, CFG.stacker(), slot_map=slot_map)


def _brute_nearest(pol: StoragePolicy, code: str):
    receiving = pol.warehouse.location(ELEVATOR)
    vacant = [loc for loc in pol.candidate_slots(code) if pol.warehouse.is_vacant(loc.id)]
    if not vacant:
        return None
    return min(vacant, key=lambda loc: (
        travel_time(receiving, loc, pol.equipment, aisle_turns(receiving, loc)), loc.seq_no))


def _check(pol: StoragePolicy) -> None:
    wh = pol.warehouse
    # the candidate sets partition the slots: distinct sets share no slot
    distinct = {id(s): s for s in map(pol.candidate_slots, CODES)}.values()
    ids = [loc.id for candidates in distinct for loc in candidates]
    assert len(ids) == len(set(ids))
    for code in CODES:
        candidates = pol.candidate_slots(code)
        assert (pol.nearest_vacant(code) is not None) == any(wh.is_vacant(loc.id)
                                                             for loc in candidates)
        assert pol.nearest_vacant(code) == _brute_nearest(pol, code)
        held = sum(rec.qty for rec in wh.records.values() if rec.item == code)
        assert wh.total_on_hand(code) == held
        lots = [rec for rec in wh.records.values() if rec.item == code]
        oldest = min(lots, key=lambda rec: (rec.mfg_date, wh.storage[rec.location].seq_no),
                     default=None)
        assert wh.fifo_lot(code) is oldest
    assert pol.restock_choice() == _brute_choice(pol)


def _brute_choice(pol: StoragePolicy):
    wh = pol.warehouse
    eligible = [(sum(rec.qty for rec in wh.records.values() if rec.item == code), code)
                for code in CODES
                if any(wh.is_vacant(loc.id) for loc in pol.candidate_slots(code))]
    return min(eligible)[1] if eligible else None


STEP = st.one_of(
    st.tuples(st.just("place"), st.integers(0, 11), st.sampled_from(CODES),
              st.integers(1, 6), st.sampled_from(DATES)),
    st.tuples(st.just("pick"), st.sampled_from(CODES), st.integers(1, 14)),
    st.tuples(st.just("put_away"), st.sampled_from(CODES), st.sampled_from(DATES)),
    st.tuples(st.just("fill"), st.sampled_from(CODES), st.sampled_from(DATES)),
    st.tuples(st.just("new_policy")),
)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(PolicyKind)),
       prestock=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(CODES)),
                         max_size=8),
       steps=st.lists(STEP, max_size=40))
def test_indices_match_brute_force(kind, prestock, steps):
    wh, slots = _world()
    for index, code in prestock:
        if wh.is_vacant(slots[index].id):
            wh.place(slots[index].id, code, 3, MFG)
    pol = _policy(kind, wh, slots)
    _check(pol)
    for step in steps:
        op = step[0]
        if op == "place":
            _, index, code, qty, mfg = step
            if wh.is_vacant(slots[index].id):
                wh.place(slots[index].id, code, qty, mfg)
        elif op == "pick":
            _, code, qty = step
            stock = wh.total_on_hand(code)
            if stock:
                wh.pick(code, min(qty, stock))
        elif op == "put_away":
            _, code, mfg = step
            if pol.nearest_vacant(code) is not None:
                pol.put_away(code, mfg)
        elif op == "fill":
            # full pallets until the item's candidate set is full
            _, code, mfg = step
            while pol.nearest_vacant(code) is not None:
                pol.put_away(code, mfg)
        else:
            # a policy built over the stocked warehouse; the old one
            # keeps watching it too
            pol = _policy(kind, wh, slots)
        _check(pol)


def test_full_building_parks_every_item_until_a_slot_drains():
    """Under random storage a full building leaves no item eligible, so
    every item is parked on the one candidate set; the pick that drains a
    slot brings them all back at their current stock."""
    wh, slots = _world()
    pol = _policy(PolicyKind.RANDOM, wh, slots)
    for index, loc in enumerate(slots):
        wh.place(loc.id, CODES[index % 3], 1 + index % 3, MFG)
    assert pol.restock_choice() is None
    shared = pol._set_of_item["A"]
    assert shared.parked == set(CODES)
    assert pol._stock == []
    wh.pick("C", 3)  # drains one of C's four 3-piece pallets
    assert shared.parked == set()
    assert pol.restock_choice() == _brute_choice(pol) == "A"  # A 4, B 8, C 9
    pol.put_away("A", MFG)  # fills the building again
    assert pol.restock_choice() is None
    assert shared.parked == set(CODES)
    wh.pick("B", 8)  # drains B's four pallets
    assert pol.restock_choice() == _brute_choice(pol) == "B"  # A 10, B 0, C 9


def test_non_lifting_equipment_on_two_levels_raises_at_construction():
    """Every slot's travel key is computed up front, so equipment that
    cannot reach the upper level fails before any query, under every policy."""
    wh, slots = _world()
    no_lift = Equipment("handlift", 100.0, 0.0, 2.0)
    for kind in PolicyKind:
        slot_map = _slot_map(slots) if kind is PolicyKind.FIXED else None
        with pytest.raises(InputDataError, match="handlift cannot lift"):
            StoragePolicy(kind, wh, no_lift, slot_map=slot_map)


def test_overlapping_slot_map_is_an_input_error():
    wh, slots = _world()
    overlapping = {"A": [slots[0].id, slots[5].id], "B": [slots[5].id]}
    with pytest.raises(InputDataError, match=r"slot \(1, 1, 1\) more than once"):
        StoragePolicy(PolicyKind.FIXED, wh, CFG.stacker(), slot_map=overlapping)
    twice = {"A": [slots[0].id, slots[0].id]}
    with pytest.raises(InputDataError, match="more than once"):
        StoragePolicy(PolicyKind.FIXED, wh, CFG.stacker(), slot_map=twice)


def test_place_initial_fallback_uses_the_nearest_slot_anywhere():
    wh, slots = _world()
    pol = StoragePolicy(PolicyKind.FIXED, wh, CFG.stacker(), slot_map={
        "A": [slots[0].id], "B": [slots[2].id], "C": [slots[1].id]})
    rows = [PalletRecord((0, 0, 0), "A", 1, MFG)] * 3
    assert place_initial(pol, rows, {"A": 1.0}) == 2
    receiving = wh.location(ELEVATOR)
    nearest_others = sorted(slots[1:], key=lambda loc: (
        travel_time(receiving, loc, CFG.stacker(), aisle_turns(receiving, loc)), loc.seq_no))
    assert set(wh.records) == {slots[0].id, nearest_others[0].id, nearest_others[1].id}
