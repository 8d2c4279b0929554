"""Warehouse state: travel arithmetic, FIFO inventory, CSV round-trips."""

from __future__ import annotations

import os
import re
import threading
from contextlib import suppress
from datetime import date, datetime, timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DROPOFF, ELEVATOR, ENTRANCE, anchors, make_item, slot
from picksim import (
    Equipment,
    InputDataError,
    Item,
    Location,
    PalletRecord,
    ParseError,
    SimConfig,
    Warehouse,
    travel_time,
    index_layout,
    load_inventory,
    load_items,
    load_layout,
    load_orders,
    save_inventory,
    save_items,
    save_layout,
)
from picksim.cli import _read_weekly
from picksim.warehouse import _finite

STACKER = Equipment("stacker", 90.0, 30.0, 3.0)
HANDLIFT = Equipment("handlift", 100.0, 0.0, 2.0)


def _wh(slots=None, items=None, audit=False):
    slots = slots if slots is not None else [
        slot(0, 1, 0, 100.0, 100.0, seq=1),
        slot(0, 1, 1, 100.0, 200.0, seq=2),
        slot(1, 1, 0, 500.0, 100.0, seq=3),
    ]
    items = items if items is not None else [make_item("A"), make_item("B")]
    return Warehouse(index_layout(anchors() + slots), items, audit=audit)


# -- travel ---------------------------------------------------------------


def test_travel_same_row_no_turns():
    a = slot(0, 1, 0, 100.0, 100.0, seq=1)
    b = slot(0, 1, 1, 100.0, 800.0, seq=2)
    # 700 cm planar at 100 cm/s, no lift, no turns
    assert travel_time(a, b, HANDLIFT) == (0, 7.0)


def test_travel_cross_row_adds_one_turn():
    a = slot(0, 1, 0, 100.0, 100.0, seq=1)
    b = slot(1, 1, 0, 500.0, 600.0, seq=2)
    # (400 + 500) / 90 + 1 turn x 3 s
    assert travel_time(a, b, STACKER) == (1, 900.0 / 90.0 + 3.0)


def test_travel_vertical_uses_lift_speed():
    a = slot(0, 1, 0, 100.0, 100.0, z=0.0, seq=1)
    b = slot(0, 2, 0, 100.0, 100.0, z=170.0, seq=2)
    assert travel_time(a, b, STACKER) == (0, 170.0 / 30.0)


def test_travel_vertical_without_lift_is_an_error():
    a = slot(0, 1, 0, 100.0, 100.0, z=0.0, seq=1)
    b = slot(0, 2, 0, 100.0, 100.0, z=170.0, seq=2)
    with pytest.raises(InputDataError, match="cannot lift"):
        travel_time(a, b, HANDLIFT)


def test_travel_is_symmetric():
    a = slot(0, 1, 0, 123.0, 47.0, z=170.0, seq=1)
    b = slot(2, 1, 0, 611.0, 302.0, z=0.0, seq=2)
    assert travel_time(a, b, STACKER) == travel_time(b, a, STACKER)


# cm; within 50 m a leg's terms are close enough in size that summing
# them in another order changes the last bits of some legs
_COORD = st.floats(0.0, 5000.0)
_POINTS = st.builds(
    Location, st.tuples(st.integers(-1, 3), st.integers(0, 2), st.integers(0, 2)),
    _COORD, _COORD, st.sampled_from([0.0, 170.0, 340.0]), st.just("Z1"), st.integers(0, 9))


@settings(max_examples=300, deadline=None)
@given(a=_POINTS, b=_POINTS, kind=st.sampled_from(["stacker", "handlift"]))
# summed in another order, this stacker leg's seconds change in the last bit
@example(a=slot(0, 0, 0, 0.0, 0.0), b=slot(1, 1, 0, 7.0, 0.0, z=170.0), kind="stacker")
def test_travel_time_is_the_documented_leg_price(a, b, kind):
    """Any two points (rows 0-3 and the anchor row) with the default
    stacker or a handlift, which cannot lift: the turns and seconds follow
    the documented rule, summed in the documented order to the bit, in
    both directions; a handlift leg across heights is refused."""
    eq = SimConfig().stacker() if kind == "stacker" else HANDLIFT
    dz = abs(a.z_cm - b.z_cm)
    if dz and eq.lift_speed_cm_s <= 0:
        for p, q in ((a, b), (b, a)):
            with pytest.raises(InputDataError, match="cannot lift"):
                travel_time(p, q, eq)
        return
    turns = 0 if a.id[0] == b.id[0] else 1
    seconds = (abs(a.x_cm - b.x_cm) + abs(a.y_cm - b.y_cm)) / eq.speed_cm_s
    if dz:
        seconds += dz / eq.lift_speed_cm_s
    seconds += turns * eq.turn_time_s
    for p, q in ((a, b), (b, a)):
        got_turns, got_seconds = travel_time(p, q, eq)
        assert (got_turns, got_seconds.hex()) == (turns, seconds.hex())


# -- construction ---------------------------------------------------------


def test_duplicate_location_rejected():
    with pytest.raises(InputDataError, match="duplicate location"):
        _wh(slots=[slot(0, 1, 0, 1.0, 1.0, seq=1), slot(0, 1, 0, 2.0, 2.0, seq=2)])


def test_duplicate_seq_no_rejected():
    with pytest.raises(InputDataError, match="seq_no"):
        _wh(slots=[slot(0, 1, 0, 1.0, 1.0, seq=1), slot(0, 1, 1, 2.0, 2.0, seq=1)])


def test_duplicate_item_code_rejected():
    with pytest.raises(InputDataError, match="duplicate item"):
        _wh(items=[make_item("A"), make_item("A")])


def test_item_validation():
    with pytest.raises(InputDataError, match="^item X: qty_per_pallet must be >= 1$"):
        _wh(items=[make_item("X", qpp=0)])


def test_default_anchors_always_exist():
    wh = _wh()
    assert wh.location((-1, 0, 0)).zone == "anchor"
    assert wh.location((-1, 0, 1)).seq_no == -2
    assert wh.location((-1, 0, 2)).seq_no == -1


def test_index_layout_puts_each_missing_anchor_at_the_origin():
    entrance = Location(ENTRANCE, 5.0, 7.0, 0.0, "anchor", -3)
    storage, found, zones = index_layout([slot(0, 1, 0, 1.0, 1.0, seq=1), entrance])
    assert list(storage) == [(0, 1, 0)]
    assert zones == {"Z1": [storage[(0, 1, 0)]]}
    assert found == {
        ENTRANCE: entrance,
        DROPOFF: Location(DROPOFF, 0.0, 0.0, 0.0, "anchor", -2),
        ELEVATOR: Location(ELEVATOR, 0.0, 0.0, 0.0, "anchor", -1),
    }


def test_a_stray_id_on_the_anchor_row_is_refused_by_the_warehouse():
    stray = Location((-1, 0, 7), 100.0, 200.0, 0.0, "Z1", 2)
    with pytest.raises(InputDataError, match=re.escape("got (-1, 0, 7)")):
        _wh(slots=[slot(0, 1, 0, 1.0, 1.0, seq=1), stray])
    with pytest.raises(InputDataError, match=re.escape("got (-1, 0, 7)")):
        index_layout([stray])


# -- record semantics -----------------------------------------------------


def test_locations_and_items_are_frozen_hashable_values():
    loc = Location((0, 1, 0), 1.0, 2.0, 0.0, "Z1", 4)
    assert repr(loc) == ("Location(id=(0, 1, 0), x_cm=1.0, y_cm=2.0, z_cm=0.0, "
                         "zone='Z1', seq_no=4)")
    twin = Location(id=(0, 1, 0), x_cm=1.0, y_cm=2.0, z_cm=0.0, zone="Z1", seq_no=4)
    assert twin == loc and hash(twin) == hash(loc) and len({loc, twin}) == 1
    assert loc != Location((0, 1, 0), 1.0, 2.0, 0.0, "Z1", 5)
    item = Item("A", "Z1", 12)
    assert repr(item) == "Item(code='A', home_zone='Z1', qty_per_pallet=12)"
    assert item == Item("A", "Z1", 12) and {item: 1}[Item("A", "Z1", 12)] == 1
    for record, name in ((loc, "zone"), (item, "qty_per_pallet")):
        with pytest.raises(AttributeError, match="can't set attribute"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_pallet_records_are_mutable_unhashable_values():
    record = PalletRecord((0, 1, 0), "A", 5, date(2024, 5, 1))
    assert repr(record) == ("PalletRecord(location=(0, 1, 0), item='A', qty=5, "
                            "mfg_date=datetime.date(2024, 5, 1))")
    record.qty -= 1
    assert record == PalletRecord((0, 1, 0), "A", 4, date(2024, 5, 1))
    assert record != PalletRecord((0, 1, 0), "A", 5, date(2024, 5, 1))
    assert record != ((0, 1, 0), "A", 4, date(2024, 5, 1))
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(AttributeError):
        record.colour = "red"  # slots: no field beyond the declared ones


# -- inventory ------------------------------------------------------------


def test_place_and_on_hand():
    wh = _wh()
    wh.place((0, 1, 0), "A", 7, date(2024, 5, 1))
    assert wh.total_on_hand("A") == 7
    assert not wh.is_vacant((0, 1, 0))
    assert {lid for lid in wh.storage if wh.is_vacant(lid)} == {(0, 1, 1), (1, 1, 0)}


def test_place_rejects_occupied_slot_and_bad_qty():
    wh = _wh()
    wh.place((0, 1, 0), "A", 7, date(2024, 5, 1))
    with pytest.raises(InputDataError, match="already holds"):
        wh.place((0, 1, 0), "B", 1, date(2024, 5, 1))
    with pytest.raises(InputDataError, match="1..10"):
        wh.place((0, 1, 1), "A", 11, date(2024, 5, 1))
    with pytest.raises(InputDataError, match="unknown item"):
        wh.place((0, 1, 1), "ZZZ", 1, date(2024, 5, 1))
    with pytest.raises(InputDataError, match="unknown"):
        wh.place((9, 9, 9), "A", 1, date(2024, 5, 1))


def test_fifo_lot_oldest_date_wins():
    wh = _wh()
    wh.place((0, 1, 0), "A", 5, date(2024, 5, 10))
    wh.place((0, 1, 1), "A", 5, date(2024, 5, 1))
    wh.pick("A", 5)  # drains the FIFO lot only
    assert wh.is_vacant((0, 1, 1)) and not wh.is_vacant((0, 1, 0))


def test_fifo_lot_date_tie_breaks_by_route_position():
    wh = _wh()
    wh.place((0, 1, 1), "A", 5, date(2024, 5, 1))  # seq 2
    wh.place((0, 1, 0), "A", 5, date(2024, 5, 1))  # seq 1
    wh.pick("A", 5)
    assert wh.is_vacant((0, 1, 0)) and not wh.is_vacant((0, 1, 1))
    with pytest.raises(InputDataError, match="exceeds stock"):
        wh.pick("B", 1)  # no lot at all


def test_pick_splits_across_pallets_and_frees_slots():
    wh = _wh(audit=True)
    wh.place((0, 1, 0), "A", 4, date(2024, 5, 1))
    wh.place((0, 1, 1), "A", 6, date(2024, 5, 2))
    # two pallets touched; the 3 pieces of the second are taken loose
    assert wh.pick("A", 7) == (2, 3)
    assert wh.total_on_hand("A") == 3
    assert wh.is_vacant((0, 1, 0))
    assert wh.records[(0, 1, 1)].qty == 3
    wh.verify_conservation()


def test_pick_beyond_stock_is_an_error():
    wh = _wh()
    wh.place((0, 1, 0), "A", 4, date(2024, 5, 1))
    with pytest.raises(InputDataError, match="exceeds stock"):
        wh.pick("A", 5)
    with pytest.raises(InputDataError, match=">= 1"):
        wh.pick("A", 0)


def test_audit_tracks_conservation_across_sources():
    wh = _wh(audit=True)
    wh.place((0, 1, 0), "A", 4, date(2024, 5, 1))
    wh.place((0, 1, 1), "A", 10, date(2024, 5, 2))
    wh.pick("A", 6)
    wh.verify_conservation()
    assert wh.total_on_hand("A") == 8


def test_conservation_is_checked_without_the_audit_marker():
    """The audit reads the change log, so a warehouse built without
    ``audit=True`` is checked just the same."""
    wh = _wh()
    wh.place((0, 1, 0), "A", 4, date(2024, 5, 1))
    wh.place((0, 1, 1), "A", 10, date(2024, 5, 2))
    wh.pick("A", 6)
    wh.verify_conservation()
    wh.records[(0, 1, 1)].qty += 1  # a pallet gains a piece no placement logged
    with pytest.raises(AssertionError, match="conservation broken for A: expected 8"):
        wh.verify_conservation()


def test_audit_catches_on_hand_counter_drift():
    wh = _wh(audit=True)
    wh.place((0, 1, 0), "A", 5, date(2024, 5, 1))
    wh.pick("A", 2)
    wh.verify_conservation()
    wh._on_hand["A"] += 1  # the running counter drifts; the records do not
    assert wh.total_on_hand("A") == 4
    with pytest.raises(AssertionError, match="counter drift for A"):
        wh.verify_conservation()


def test_total_on_hand_of_unknown_item_is_an_error():
    wh = _wh()
    assert wh.total_on_hand("B") == 0
    with pytest.raises(InputDataError, match="unknown item code ZZZ"):
        wh.total_on_hand("ZZZ")


def test_audit_catches_fifo_violation_via_direct_tampering():
    wh = _wh(audit=True)
    wh.place((0, 1, 0), "A", 4, date(2024, 5, 10))
    wh.pick("A", 2)
    # sneak in an older pallet: consuming it now would violate FIFO
    wh.place((0, 1, 1), "A", 4, date(2024, 5, 1))
    wh.pick("A", 1)
    # the audit reads the pick from the log; a run checks after every event
    with pytest.raises(AssertionError, match="FIFO violation"):
        wh.verify_conservation()


_PICK_SLOTS = [slot(r, 1, s, 100.0 * s, 100.0 * r, seq=10 - 3 * r - s)
               for r in range(2) for s in range(3)]
_PICK_ITEMS = {"A": 5, "B": 3}
_PICK_OPS = st.lists(st.one_of(
    st.tuples(st.just("place"), st.integers(0, len(_PICK_SLOTS) - 1),
              st.sampled_from(sorted(_PICK_ITEMS)), st.integers(1, 5), st.integers(0, 3)),
    st.tuples(st.just("pick"), st.sampled_from(sorted(_PICK_ITEMS)), st.integers(1, 12)),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(ops=_PICK_OPS, audit=st.booleans())
def test_pick_matches_a_reference_model(ops, audit):
    """Random placements and picks, the picks checked against a list-scan
    model of FIFO consumption: what each pick returns, the on-hand counts,
    each item's oldest pallet and what each step appends to the change
    log, whose drain entries (``left == 0``) are exactly the slots the
    step freed."""
    wh = Warehouse(index_layout(anchors() + _PICK_SLOTS),
                   [make_item(code, qpp=qpp) for code, qpp in _PICK_ITEMS.items()], audit=audit)
    seq = {loc.id: loc.seq_no for loc in _PICK_SLOTS}
    pallets = {}  # slot -> [item, qty, mfg_date], the model's inventory
    # dates never go back, as in a run, so the audit's FIFO check holds
    today = date(2024, 5, 1)
    for op in ops:
        logged = len(wh.log)
        drained, changed = [], []
        if op[0] == "place":
            _, index, item, qty, days = op
            loc_id = _PICK_SLOTS[index].id
            if loc_id in pallets or qty > _PICK_ITEMS[item]:
                continue
            today += timedelta(days=days)
            mfg = today
            wh.place(loc_id, item, qty, mfg)
            pallets[loc_id] = [item, qty, mfg]
            changed.append((loc_id, item, qty, qty))
        else:
            _, item, qty = op
            lots = sorted((p[2], seq[loc_id], loc_id) for loc_id, p in pallets.items()
                          if p[0] == item)
            touched = loose = 0
            remaining = qty
            for _, _, loc_id in lots:
                if not remaining:
                    break
                taken = min(remaining, pallets[loc_id][1])
                pallets[loc_id][1] -= taken
                left = pallets[loc_id][1]
                remaining -= taken
                touched += 1
                if left == 0:
                    del pallets[loc_id]
                    drained.append(loc_id)
                else:
                    loose = taken
                changed.append((loc_id, item, -taken, left))
            if remaining:
                with pytest.raises(InputDataError, match="exceeds stock"):
                    wh.pick(item, qty)
            else:
                assert wh.pick(item, qty) == (touched, loose)
        new = wh.log[logged:]
        assert [(r.location, r.item, pieces, left) for r, pieces, left in new] == changed
        assert [r.location for r, _, left in new if left == 0] == drained
        wh.verify_conservation()
        for item in _PICK_ITEMS:
            held = [(p[2], seq[loc_id], loc_id, p[1]) for loc_id, p in pallets.items()
                    if p[0] == item]
            assert wh.total_on_hand(item) == sum(h[3] for h in held)
            lots = wh._lots[item]
            if held:
                mfg, _, loc_id, qty = min(held)
                head = lots[0][2]
                assert (head.location, head.qty, head.mfg_date) == (loc_id, qty, mfg)
            else:
                assert lots == []
        assert {loc_id: (r.item, r.qty, r.mfg_date) for loc_id, r in wh.records.items()} == \
            {loc_id: tuple(p) for loc_id, p in pallets.items()}
        if audit:
            wh.verify_conservation()


# -- CSV round-trips ------------------------------------------------------


def test_layout_round_trip(tmp_path):
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, zone="Z2", seq=1)]
    path = tmp_path / "layout.csv"
    save_layout(layout, str(path))
    again = load_layout(str(path))
    assert again == index_layout(layout)
    save_layout([*again.anchors.values(), *again.storage.values()],
                str(tmp_path / "layout2.csv"))
    assert (tmp_path / "layout2.csv").read_bytes() == path.read_bytes()


def test_items_round_trip(tmp_path):
    items = [make_item("A", qpp=12), make_item("B", zone="Z9")]
    path = tmp_path / "items.csv"
    save_items(items, str(path))
    assert load_items(str(path)) == items


def test_inventory_round_trip(tmp_path):
    rows = [PalletRecord((0, 1, 0), "A", 5, date(2024, 5, 1))]
    path = tmp_path / "inv.csv"
    save_inventory(rows, str(path))
    assert load_inventory(str(path)) == rows


# name -> (reader, header line, two valid data rows)
READERS = {
    "layout": (load_layout, b"row,layer,slot,x_cm,y_cm,z_cm,zone,seq_no",
               [b"0,1,0,100.0,100.0,0.0,Z1,1", b"0,1,1,100.0,200.0,0.0,Z1,2"]),
    "items": (load_items, b"item_code,home_zone,qty_per_pallet", [b"A,Z1,12", b"B,Z2,10"]),
    "inventory": (load_inventory, b"row,layer,slot,item_code,qty,mfg_date",
                  [b"0,1,0,A,5,2024-05-01", b"0,1,1,B,3,2024-05-02"]),
    "orders": (lambda path: load_orders(path, {"A": make_item("A"), "B": make_item("B")}),
               b"order_datetime,order_no,truck_id,item_code,qty",
               [b"2024-05-06 08:00:00,O1,T1,A,2", b"2024-05-06 08:00:00,O1,T1,B,1"]),
    "weekly": (_read_weekly, b"week,metric", [b"1,10", b"2,12.5"]),
}


def _open_quote_in_last_cell(row: bytes) -> bytes:
    head, _, last = row.rpartition(b",")
    return head + b',"' + last


# each turns a valid data row into a malformed one
MALFORMED = {
    "extra cell": lambda row: row + b",x",
    "missing trailing cell": lambda row: row.rpartition(b",")[0],
    "unterminated quote": _open_quote_in_last_cell,
    "non-UTF-8 byte": lambda row: row.replace(b",", b"\xff,", 1),
}


@pytest.mark.parametrize("name", READERS)
def test_bad_header_is_a_parse_error(tmp_path, name):
    read, _, rows = READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(b"not,a,header\n" + rows[0] + b"\n")
    with pytest.raises(ParseError, match="expected header"):
        read(str(path))


@pytest.mark.parametrize("name", READERS)
def test_missing_file_is_a_parse_error(tmp_path, name):
    with pytest.raises(ParseError, match="cannot read"):
        READERS[name][0](str(tmp_path / "nope.csv"))


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("name", READERS)
def test_malformed_row_is_a_parse_error_naming_its_line(tmp_path, name, case):
    read, header, (first, second) = READERS[name]
    path = tmp_path / f"{name}.csv"
    # the bad row is line 3; an unterminated quote there swallows line 4
    path.write_bytes(b"\n".join([header, first, MALFORMED[case](second), first, b""]))
    with pytest.raises(ParseError, match=re.escape(f"{name}.csv:3: ")):
        read(str(path))


@pytest.mark.parametrize("name", READERS)
def test_a_first_byte_that_is_not_utf8_names_line_1(tmp_path, name):
    """The undecodable byte opens the header line, so the search for it
    in the raw bytes must start at the file's first byte."""
    read, header, (first, second) = READERS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(b"\n".join([b"\xff" + header, first, second, b""]))
    with pytest.raises(ParseError, match=re.escape(f"{name}.csv:1: not UTF-8")):
        read(str(path))


@pytest.mark.parametrize("name", READERS)
def test_blank_lines_are_skipped(tmp_path, name):
    read, header, (first, second) = READERS[name]
    plain = tmp_path / "plain" / f"{name}.csv"
    spaced = tmp_path / "spaced" / f"{name}.csv"
    plain.parent.mkdir()
    spaced.parent.mkdir()
    plain.write_bytes(b"\n".join([header, first, second, b""]))
    spaced.write_bytes(b"\n".join([header, b"", first, b"", b"", second, b"", b""]))
    assert read(str(spaced)) == read(str(plain))


# reader name -> a column whose cell may end in a line break in a valid row
SPANNABLE = {"layout": 6, "items": 1, "inventory": 3, "orders": 1, "weekly": 0}


def _spanning(name: str, row: bytes) -> bytes:
    """``row`` with its ``SPANNABLE`` cell quoted and ending in ``\\n``, so
    the row spans two lines of the file and stays valid."""
    cells = row.split(b",")
    cells[SPANNABLE[name]] = b'"' + cells[SPANNABLE[name]] + b'\n"'
    return b",".join(cells)


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("name", READERS)
def test_a_bad_row_spanning_two_lines_names_the_line_it_starts_on(tmp_path, name, case):
    read, header, (first, second) = READERS[name]
    path = tmp_path / f"{name}.csv"
    # the bad row opens on line 3 and goes on on line 4
    path.write_bytes(b"\n".join([header, first, MALFORMED[case](_spanning(name, second)),
                                 first, b""]))
    with pytest.raises(ParseError, match=re.escape(f"{name}.csv:3: ")):
        read(str(path))


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("name", READERS)
def test_a_bad_row_after_a_spanning_row_and_blank_lines_names_its_line(tmp_path, name, case):
    read, header, (first, second) = READERS[name]
    path = tmp_path / f"{name}.csv"
    # lines 2-3 hold one good row, lines 4-5 are blank and the bad row is line 6
    path.write_bytes(b"\n".join([header, _spanning(name, first), b"", b"",
                                 MALFORMED[case](second), first, b""]))
    with pytest.raises(ParseError, match=re.escape(f"{name}.csv:6: ")):
        read(str(path))


def _input_error_row(name: str, first: bytes) -> bytes:
    """A row that parses but breaks a rule of ``name``'s reader when it
    follows ``first``: a pallet or an order line of 0 pieces, or a repeat
    of ``first``'s location, item code or week."""
    if name == "inventory":
        return first.replace(b",5,", b",0,")
    if name == "orders":
        return first[:-1] + b"0"
    return first


@pytest.mark.parametrize("case", [*MALFORMED, "rule"])
@pytest.mark.parametrize("name", READERS)
def test_a_bad_row_read_from_a_pipe_raises_the_same_error_class(tmp_path, name, case):
    """A handle that cannot seek is not read again to find the failing row,
    so the error names the line where the reader stopped; its class is the
    one a regular file gives, and the read ends."""
    read, header, (first, second) = READERS[name]
    bad = _input_error_row(name, first) if case == "rule" else MALFORMED[case](second)
    data = b"\n".join([header, first, _spanning(name, second), bad, first, b""])
    regular = tmp_path / "regular" / f"{name}.csv"
    regular.parent.mkdir()
    regular.write_bytes(data)
    with pytest.raises((ParseError, InputDataError)) as expected:
        read(str(regular))
    fifo = tmp_path / "pipe" / f"{name}.csv"
    fifo.parent.mkdir()
    os.mkfifo(fifo)

    def write() -> None:
        with suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with pytest.raises((ParseError, InputDataError)) as got:
        read(str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert type(got.value) is type(expected.value)
    assert str(got.value).startswith(f"{fifo}:")


# reader name -> positions of its numeric cells that must be finite
FLOAT_CELLS = {"layout": (3, 4, 5), "weekly": (1,)}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name,column",
                         [(name, column) for name, columns in FLOAT_CELLS.items()
                          for column in columns])
def test_non_finite_number_is_a_parse_error_naming_its_line(tmp_path, name, column, value):
    read, header, (first, second) = READERS[name]
    cells = second.split(b",")
    cells[column] = value.encode()
    path = tmp_path / f"{name}.csv"
    path.write_bytes(b"\n".join([header, first, b",".join(cells), b""]))
    with pytest.raises(ParseError,
                       match=re.escape(f"{name}.csv:3: '{value}' is not a finite number")):
        read(str(path))


@pytest.mark.parametrize("cell", ["x" * 200, "x" * 201, "9" * 400])
def test_a_float_cell_is_quoted_by_at_most_its_first_200_characters(cell):
    """A cell that is not a number, or reads as an infinite one, is quoted
    as ``int()`` quotes one: whole up to 200 characters, where the message
    is ``float()``'s own, and cut to its first 200 beyond."""
    with pytest.raises(ValueError) as exc:
        _finite(cell)
    if cell[0] == "x":
        assert str(exc.value) == f"could not convert string to float: {cell[:200]!r}"
        if len(cell) <= 200:
            with pytest.raises(ValueError) as own:
                float(cell)
            assert str(exc.value) == str(own.value)
    else:
        assert str(exc.value) == f"{cell[:200]!r} is not a finite number"


# reader name -> (position of its date cell, the parser of that cell)
DATE_CELLS = {"inventory": (5, date.fromisoformat), "orders": (0, datetime.fromisoformat)}


@pytest.mark.parametrize("length", [200, 201, 5000])
@pytest.mark.parametrize("name", DATE_CELLS)
def test_a_date_cell_is_quoted_by_at_most_its_first_200_characters(tmp_path, name, length):
    """A date cell that does not parse is quoted as ``_finite`` quotes a
    number: whole up to 200 characters, where the message is Python's own,
    and cut to its first 200 beyond."""
    read, header, (first, second) = READERS[name]
    column, parse = DATE_CELLS[name]
    cell = "x" * length
    cells = second.split(b",")
    cells[column] = cell.encode()
    path = tmp_path / f"{name}.csv"
    path.write_bytes(b"\n".join([header, first, b",".join(cells), b""]))
    with pytest.raises(ParseError) as exc:
        read(str(path))
    assert str(exc.value) == f"{path}:3: Invalid isoformat string: {cell[:200]!r}"
    if length <= 200:
        with pytest.raises(ValueError) as own:
            parse(cell)
        assert str(exc.value) == f"{path}:3: {own.value}"


def test_inventory_qty_below_one_is_an_input_error_naming_its_line(tmp_path):
    read, header, (first, second) = READERS["inventory"]
    path = tmp_path / "inventory.csv"
    path.write_bytes(b"\n".join([header, first, second.replace(b",3,", b",0,"), b""]))
    with pytest.raises(InputDataError, match=re.escape(
            "inventory.csv:3: initial pallet of B: qty must be >= 1, got 0")):
        read(str(path))


def test_a_stray_id_on_the_anchor_row_is_an_input_error_naming_its_line(tmp_path):
    read, header, (first, _) = READERS["layout"]
    path = tmp_path / "layout.csv"
    path.write_bytes(b"\n".join([header, first, b"-1,0,2,60.0,0.0,0.0,anchor,-1",
                                 b"-1,0,7,100.0,200.0,0.0,Z1,2", b""]))
    with pytest.raises(InputDataError, match=re.escape("layout.csv:4: ")):
        read(str(path))
