"""Storage policies: candidate sets, nearest-vacant choice, put-away, initial stock."""

from __future__ import annotations

import random
from datetime import date

import pytest

from conftest import ELEVATOR, anchors, make_item, slot
from picksim import (
    InputDataError,
    PalletRecord,
    PolicyKind,
    SimConfig,
    StoragePolicy,
    Warehouse,
    place_initial,
    travel_time,
    aisle_turns,
)

CFG = SimConfig()
MFG = date(2024, 5, 1)


def _world(n_rows=2, per_row=3, zones=("Z1", "Z2")):
    """Rows of slots; row r belongs to zones[r % len(zones)]."""
    slots = []
    seq = 0
    for r in range(n_rows):
        for s in range(per_row):
            slots.append(slot(r, 1, s, 300.0 + 400.0 * r, 100.0 + 150.0 * s,
                              zone=zones[r % len(zones)], seq=seq))
            seq += 1
    items = [make_item("A", zone="Z1"), make_item("B", zone="Z2")]
    wh = Warehouse(anchors() + slots, items)
    return wh, slots


def _policy(wh, kind, slot_map=None):
    return StoragePolicy(kind, wh, CFG.stacker(), slot_map=slot_map)


# -- candidate sets -------------------------------------------------------


def test_fixed_candidates_are_the_dedicated_slots():
    wh, slots = _world()
    pol = _policy(wh, PolicyKind.FIXED, {"A": [slots[0].id, slots[4].id], "B": [slots[1].id]})
    assert [l.id for l in pol.candidate_slots("A")] == [slots[0].id, slots[4].id]
    with pytest.raises(InputDataError, match="no dedicated slots"):
        pol.candidate_slots("ZZ")


def test_fixed_policy_requires_a_slot_map():
    wh, _ = _world()
    with pytest.raises(InputDataError, match="slot map"):
        StoragePolicy(PolicyKind.FIXED, wh, CFG.stacker())


def test_random_candidates_are_every_slot():
    wh, slots = _world()
    pol = _policy(wh, PolicyKind.RANDOM)
    assert {l.id for l in pol.candidate_slots("A")} == {s.id for s in slots}


def test_zone_candidates_are_the_home_zone():
    wh, slots = _world()
    pol = _policy(wh, PolicyKind.FIXED_ZONE)
    assert {l.zone for l in pol.candidate_slots("A")} == {"Z1"}
    assert {l.zone for l in pol.candidate_slots("B")} == {"Z2"}


# -- nearest vacant -------------------------------------------------------


def test_put_away_takes_nearest_vacant_from_receiving():
    wh, slots = _world()
    pol = _policy(wh, PolicyKind.RANDOM)
    a1 = pol.put_away("A", MFG)
    # slot (0,1,0) at (300,100) is closest to the elevator at (60,0)
    assert a1.location == (0, 1, 0)
    a2 = pol.put_away("A", MFG)
    assert a2.location == (0, 1, 1)  # next nearest, first one now occupied


def test_nearest_vacant_matches_brute_force():
    rng = random.Random(7)
    wh, slots = _world(n_rows=4, per_row=4, zones=("Z1", "Z2", "Z1", "Z2"))
    pol = _policy(wh, PolicyKind.RANDOM)
    # occupy a random half of the warehouse
    for s in rng.sample(slots, 8):
        wh.place(s.id, "B", 1, MFG)
    receiving = wh.location(ELEVATOR)
    eq = CFG.stacker()
    expected = min(
        (s for s in slots if wh.is_vacant(s.id)),
        key=lambda s: (travel_time(receiving, s, eq, aisle_turns(receiving, s)), s.seq_no),
    )
    assert pol.nearest_vacant("A").id == expected.id


def test_primary_location_fixed_and_shared():
    wh, slots = _world()
    fixed = _policy(wh, PolicyKind.FIXED, {"A": [slots[4].id, slots[0].id]})
    assert fixed.primary_location("A").id == slots[4].id  # first mapped slot
    shared = _policy(wh, PolicyKind.RANDOM)
    assert shared.primary_location("A").seq_no == 0  # earliest route position
    zoned = _policy(wh, PolicyKind.FIXED_ZONE)
    assert zoned.primary_location("B").zone == "Z2"


# -- put-away under load --------------------------------------------------


def test_policy_containment_under_load():
    wh, slots = _world(n_rows=4, per_row=4, zones=("Z1", "Z2", "Z1", "Z2"))
    pol = _policy(wh, PolicyKind.FIXED_ZONE)
    # eight Z1 slots exist: eight put-aways fill them, and no more fit
    for _ in range(8):
        a = pol.put_away("A", MFG)
        assert wh.location(a.location).zone == "Z1"
    assert pol.nearest_vacant("A") is None
    assert pol.nearest_vacant("B") is not None
    assert all(wh.records[lid].item == "A" for lid in wh.records)


def test_put_away_without_a_vacant_candidate_is_a_caller_bug():
    wh, slots = _world(n_rows=1, per_row=1, zones=("Z1",))
    pol = _policy(wh, PolicyKind.RANDOM)
    pol.put_away("A", MFG)
    with pytest.raises(AssertionError, match="without a vacant candidate slot"):
        pol.put_away("A", MFG)


# -- initial placement ----------------------------------------------------


def test_place_initial_orders_by_priority_then_age():
    wh, slots = _world(n_rows=1, per_row=3, zones=("Z1",))
    wh.items["B"] = make_item("B", zone="Z1")  # rehome B so both fit Z1
    pol = _policy(wh, PolicyKind.FIXED_ZONE)
    rows = [
        PalletRecord((0, 0, 0), "B", 3, date(2024, 4, 2)),
        PalletRecord((0, 0, 0), "A", 4, date(2024, 4, 9)),
        PalletRecord((0, 0, 0), "A", 5, date(2024, 4, 1)),
    ]
    fallbacks = place_initial(pol, rows, priority={"A": 9.0, "B": 1.0})
    assert fallbacks == 0
    # A places first (higher priority), oldest pallet first -> nearest slot
    assert wh.records[slots[0].id].item == "A"
    assert wh.records[slots[0].id].mfg_date == date(2024, 4, 1)
    assert wh.records[slots[1].id].item == "A"
    assert wh.records[slots[2].id].item == "B"


def test_place_initial_falls_back_outside_policy_slots():
    wh, slots = _world(n_rows=2, per_row=1, zones=("Z1", "Z2"))
    pol = _policy(wh, PolicyKind.FIXED_ZONE)
    rows = [
        PalletRecord((0, 0, 0), "A", 1, date(2024, 4, 1)),
        PalletRecord((0, 0, 0), "A", 1, date(2024, 4, 2)),  # Z1 now full
    ]
    assert place_initial(pol, rows, priority={"A": 1.0}) == 1
    held = {rec.item for rec in wh.records.values()}
    assert held == {"A"} and len(wh.records) == 2


def test_place_initial_overflow_is_an_error():
    wh, slots = _world(n_rows=1, per_row=1, zones=("Z1",))
    pol = _policy(wh, PolicyKind.RANDOM)
    rows = [PalletRecord((0, 0, 0), "A", 1, MFG),
            PalletRecord((0, 0, 0), "A", 2, MFG)]
    with pytest.raises(InputDataError, match="capacity"):
        place_initial(pol, rows, priority={})
