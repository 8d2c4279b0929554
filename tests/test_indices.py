"""The storage and stock indices agree with brute-force scans.

Random sequences of placements, picks, fills and replenishment visits
run against all three storage policies.  After every step, each item's
``nearest_vacant`` must equal a scan of its ``candidate_slots``,
every candidate set's ``vacant`` list must be exactly the sorted keys of
its vacant slots, every storage slot must be in exactly one set (the
residual set included), ``total_on_hand`` must equal the sum of the
item's pallet records, every item must have a stock-heap entry equal to
its on-hand count or be parked on its set, the head of the item's lot
heap must be its record with the least ``(mfg_date, seq_no)``, and no
slot may sit in two candidate sets.  Every visit (``put_away``) is judged
against scans: it must place one full pallet of the least-stocked item
among those with a vacant candidate slot (ties by code), dated by the
visit, in the least key among that item's vacant candidate slots, or,
when no item has one, place nothing, log nothing and date nothing.
Placements, fills and visits draw their manufacturing date from a small
set, so lots arrive out of date order and dates tie.  A fill places full
pallets of one item until its candidate set is full, so items are
parked and picks drain the sets that un-park them; partial pallets come
from placement steps.  The fixed slot map leaves some slots to no item,
some runs stock the warehouse before the policy exists, and a step may
build a fresh policy over the stocked warehouse mid-run.  Every policy
built so far stays live, is checked after every later step and may make
a visit: each reads the warehouse's change log from its own position.
"""

from __future__ import annotations

import logging
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ELEVATOR, anchors, make_item, slot
from picksim import (
    InputDataError,
    PalletRecord,
    PolicyKind,
    SimConfig,
    StoragePolicy,
    Warehouse,
    index_layout,
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
    return Warehouse(index_layout(anchors() + slots), items), slots


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
        travel_time(receiving, loc, pol.equipment)[1], loc.seq_no))


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
        lot_heap = wh._lots[code]
        assert (lot_heap[0][2] if lot_heap else None) is oldest
        # nearest_vacant has caught the policy up: the stock heap's invariant holds
        assert (held, code) in pol._stock or code in pol._set_of_item[code].parked
    # every slot is in exactly one set, and each set lists exactly its vacant slots
    sets = set(pol._set_of_slot.values())
    ids = [loc.id for slot_set in sets for loc in slot_set.slots]
    assert sorted(ids) == sorted(wh.storage) == sorted(pol._set_of_slot)
    for slot_set in sets:
        assert slot_set.vacant == sorted(pol._keys[loc.id] for loc in slot_set.slots
                                         if wh.is_vacant(loc.id))


def _brute_choice(pol: StoragePolicy):
    wh = pol.warehouse
    eligible = [(sum(rec.qty for rec in wh.records.values() if rec.item == code), code)
                for code in CODES
                if any(wh.is_vacant(loc.id) for loc in pol.candidate_slots(code))]
    return min(eligible)[1] if eligible else None


def _judged_visit(pol: StoragePolicy, visit_s: float, mfg: date):
    """One visit, checked against scans: the placed item, its slot (the least
    key among the item's vacant candidates), the pallet and its date; or,
    with no eligible item, nothing placed, logged or dated."""
    wh = pol.warehouse
    code = _brute_choice(pol)
    least = min((pol._keys[loc.id] for loc in pol.candidate_slots(code)
                 if wh.is_vacant(loc.id)), default=None) if code else None
    logged = len(wh.log)
    asked = []

    def date_of(now: float) -> date:
        asked.append(now)
        return mfg

    assignment = pol.put_away(visit_s, date_of)
    if code is None:
        assert assignment is None and len(wh.log) == logged and asked == []
        return None
    travel, _, location, turns = least
    assert assignment == (location, travel, turns) and asked == [visit_s]
    record = wh.records[location]
    assert (record.item, record.qty, record.mfg_date) == (code, wh.item(code).qty_per_pallet,
                                                          mfg)
    assert wh.log[logged:] == [(record, record.qty, record.qty)]
    return assignment


STEP = st.one_of(
    st.tuples(st.just("place"), st.integers(0, 11), st.sampled_from(CODES),
              st.integers(1, 6), st.sampled_from(DATES)),
    st.tuples(st.just("pick"), st.sampled_from(CODES), st.integers(1, 14)),
    st.tuples(st.just("visit"), st.integers(0, 3), st.integers(1, 4),
              st.sampled_from(DATES)),
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
    live = [pol]
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
        elif op == "visit":
            # a run of visits by one of the live policies
            _, which, count, mfg = step
            for _ in range(count):
                _judged_visit(live[which % len(live)], float(len(wh.log)), mfg)
        elif op == "fill":
            # full pallets until the item's candidate set is full
            _, code, mfg = step
            while (nearest := pol.nearest_vacant(code)) is not None:
                wh.place(nearest.id, code, wh.item(code).qty_per_pallet, mfg)
        else:
            # a policy built over the stocked warehouse; the old ones
            # stay live and keep their own read positions
            pol = _policy(kind, wh, slots)
            live.append(pol)
        for each in live:
            _check(each)


def test_full_building_parks_every_item_until_a_slot_drains():
    """Under random storage a full building leaves no item eligible, so a
    visit places nothing and parks every item on the one candidate set;
    after a pick drains a slot, the next visit brings them all back at
    their current stock and restocks the least-stocked one."""
    wh, slots = _world()
    pol = _policy(PolicyKind.RANDOM, wh, slots)
    for index, loc in enumerate(slots):
        wh.place(loc.id, CODES[index % 3], 1 + index % 3, MFG)
    assert _judged_visit(pol, 0.0, MFG) is None
    shared = pol._set_of_item["A"]
    assert shared.parked == set(CODES)
    assert pol._stock == []
    wh.pick("C", 3)  # drains one of C's four 3-piece pallets
    assert shared.parked == set(CODES)  # until the policy reads the drained log
    visit = _judged_visit(pol, 1.0, MFG)  # A 4, B 8, C 9: fills the building again
    assert wh.records[visit.location].item == "A"
    assert shared.parked == set()
    assert _judged_visit(pol, 2.0, MFG) is None
    assert shared.parked == set(CODES)
    wh.pick("B", 8)  # drains B's four pallets
    visit = _judged_visit(pol, 3.0, MFG)  # A 10, B 0, C 9
    assert wh.records[visit.location].item == "B"


@pytest.mark.parametrize("kind", list(PolicyKind))
def test_a_pallet_picked_partly_then_drained_before_a_query(kind):
    """Two picks with no query between them, the first partial and the
    second draining the pallet: the log's two entries for the pallet say
    3 pieces left, then 0, the policy lists its slot's key once, and every
    answer still equals the scans."""
    wh, slots = _world()
    pol = _policy(kind, wh, slots)
    for loc in slots:
        wh.place(loc.id, CODES[loc.seq_no % 3], 4, MFG)
    assert _judged_visit(pol, 0.0, MFG) is None  # a full building
    oldest = wh._lots["A"][0][2]
    logged = len(wh.log)
    wh.pick("A", 1)
    wh.pick("A", 3)
    assert [(record, left) for record, _, left in wh.log[logged:]] == [(oldest, 3), (oldest, 0)]
    assert wh.is_vacant(oldest.location)
    _check(pol)
    key = pol._keys[oldest.location]
    assert pol._set_of_slot[oldest.location].vacant.count(key) == 1


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
        travel_time(receiving, loc, CFG.stacker())[1], loc.seq_no))
    assert set(wh.records) == {slots[0].id, nearest_others[0].id, nearest_others[1].id}


def test_place_initial_fallback_warns_on_the_storage_logger(caplog):
    wh, slots = _world()
    pol = StoragePolicy(PolicyKind.FIXED, wh, CFG.stacker(), slot_map={
        "A": [slots[0].id], "B": [slots[2].id], "C": [slots[1].id]})
    with caplog.at_level(logging.WARNING, logger="picksim.storage"):
        place_initial(pol, [PalletRecord((0, 0, 0), "A", 1, MFG)] * 2, {"A": 1.0})
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("picksim.storage", logging.WARNING,
         "initial pallet of A placed outside its policy slots (all full)")]
