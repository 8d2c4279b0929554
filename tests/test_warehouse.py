"""Warehouse state: travel arithmetic, FIFO inventory, CSV round-trips."""

from __future__ import annotations

import re
from datetime import date

import pytest

from conftest import DROPOFF, ELEVATOR, ENTRANCE, anchors, make_item, slot
from picksim import (
    Equipment,
    InputDataError,
    Item,
    Location,
    PalletRecord,
    ParseError,
    Warehouse,
    aisle_turns,
    travel_time,
    load_inventory,
    load_items,
    load_layout,
    load_orders,
    save_inventory,
    save_items,
    save_layout,
)
from picksim.cli import _read_weekly
from picksim.warehouse import index_layout

STACKER = Equipment("stacker", 90.0, 30.0, 3.0)
HANDLIFT = Equipment("handlift", 100.0, 0.0, 2.0)


def _wh(slots=None, items=None, audit=False):
    slots = slots if slots is not None else [
        slot(0, 1, 0, 100.0, 100.0, seq=1),
        slot(0, 1, 1, 100.0, 200.0, seq=2),
        slot(1, 1, 0, 500.0, 100.0, seq=3),
    ]
    items = items if items is not None else [make_item("A"), make_item("B")]
    return Warehouse(anchors() + slots, items, audit=audit)


# -- travel ---------------------------------------------------------------


def test_travel_same_row_no_turns():
    a = slot(0, 1, 0, 100.0, 100.0, seq=1)
    b = slot(0, 1, 1, 100.0, 800.0, seq=2)
    assert aisle_turns(a, b) == 0
    # 700 cm planar at 100 cm/s, no lift, no turns
    assert travel_time(a, b, HANDLIFT, aisle_turns(a, b)) == 7.0


def test_travel_cross_row_adds_one_turn():
    a = slot(0, 1, 0, 100.0, 100.0, seq=1)
    b = slot(1, 1, 0, 500.0, 600.0, seq=2)
    assert aisle_turns(a, b) == 1
    # (400 + 500) / 90 + 1 turn x 3 s
    assert travel_time(a, b, STACKER, 1) == 900.0 / 90.0 + 3.0


def test_travel_vertical_uses_lift_speed():
    a = slot(0, 1, 0, 100.0, 100.0, z=0.0, seq=1)
    b = slot(0, 2, 0, 100.0, 100.0, z=170.0, seq=2)
    assert travel_time(a, b, STACKER, 0) == 170.0 / 30.0


def test_travel_vertical_without_lift_is_an_error():
    a = slot(0, 1, 0, 100.0, 100.0, z=0.0, seq=1)
    b = slot(0, 2, 0, 100.0, 100.0, z=170.0, seq=2)
    with pytest.raises(InputDataError, match="cannot lift"):
        travel_time(a, b, HANDLIFT, 0)


def test_travel_is_symmetric():
    a = slot(0, 1, 0, 123.0, 47.0, z=170.0, seq=1)
    b = slot(2, 1, 0, 611.0, 302.0, z=0.0, seq=2)
    assert travel_time(a, b, STACKER, 1) == travel_time(b, a, STACKER, 1)


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
    with pytest.raises(InputDataError, match="qty_per_pallet"):
        Item("X", "Z1", 0)


def test_default_anchors_always_exist():
    wh = _wh()
    assert wh.location((-1, 0, 0)).zone == "anchor"
    assert wh.location((-1, 0, 1)).seq_no == -2
    assert wh.location((-1, 0, 2)).seq_no == -1


def test_index_layout_puts_each_missing_anchor_at_the_origin():
    entrance = Location(ENTRANCE, 5.0, 7.0, 0.0, "anchor", -3)
    storage, found = index_layout([slot(0, 1, 0, 1.0, 1.0, seq=1), entrance])
    assert list(storage) == [(0, 1, 0)]
    assert found == {
        ENTRANCE: entrance,
        DROPOFF: Location(DROPOFF, 0.0, 0.0, 0.0, "anchor", -2),
        ELEVATOR: Location(ELEVATOR, 0.0, 0.0, 0.0, "anchor", -1),
    }


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
    assert wh.fifo_lot("A").location == (0, 1, 1)


def test_fifo_lot_date_tie_breaks_by_route_position():
    wh = _wh()
    wh.place((0, 1, 1), "A", 5, date(2024, 5, 1))  # seq 2
    wh.place((0, 1, 0), "A", 5, date(2024, 5, 1))  # seq 1
    assert wh.fifo_lot("A").location == (0, 1, 0)
    assert wh.fifo_lot("B") is None


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
    with pytest.raises(AssertionError, match="FIFO violation"):
        wh.pick("A", 1)


# -- CSV round-trips ------------------------------------------------------


def test_layout_round_trip(tmp_path):
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, zone="Z2", seq=1)]
    path = tmp_path / "layout.csv"
    save_layout(layout, str(path))
    again = load_layout(str(path))
    assert again == layout
    save_layout(again, str(tmp_path / "layout2.csv"))
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
def test_blank_lines_are_skipped(tmp_path, name):
    read, header, (first, second) = READERS[name]
    plain = tmp_path / "plain" / f"{name}.csv"
    spaced = tmp_path / "spaced" / f"{name}.csv"
    plain.parent.mkdir()
    spaced.parent.mkdir()
    plain.write_bytes(b"\n".join([header, first, second, b""]))
    spaced.write_bytes(b"\n".join([header, b"", first, b"", b"", second, b"", b""]))
    assert read(str(spaced)) == read(str(plain))


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
