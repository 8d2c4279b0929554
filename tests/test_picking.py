"""Picking plans, handling arithmetic, stall/resume behavior."""

from __future__ import annotations

from datetime import date, datetime

import pytest

from conftest import anchors, make_item, slot, trace_cfg
from runners import engine_run
from picksim import (
    Order,
    OrderLine,
    InputDataError,
    ParseError,
    PickingMode,
    PolicyKind,
    SimConfig,
    StoragePolicy,
    Warehouse,
    handling_time,
    load_orders,
    prepare_orders,
    save_orders,
)

DT = datetime(2024, 6, 3, 9, 0)
MFG = date(2024, 5, 1)


def _order(no, truck, *lines):
    return Order(no, DT, truck, [OrderLine(c, q) for c, q in lines])


def _zoned_world():
    slots = [
        slot(0, 1, 0, 300.0, 100.0, zone="Z1", seq=0),
        slot(0, 1, 1, 300.0, 250.0, zone="Z1", seq=1),
        slot(1, 1, 0, 700.0, 100.0, zone="Z2", seq=2),
        slot(1, 1, 1, 700.0, 250.0, zone="Z2", seq=3),
    ]
    items = [make_item("A", zone="Z1"), make_item("B", zone="Z1"),
             make_item("C", zone="Z2"), make_item("D", zone="Z2")]
    wh = Warehouse(anchors() + slots, items)
    wh.place(slots[0].id, "A", 10, MFG)
    wh.place(slots[1].id, "B", 10, MFG)
    wh.place(slots[2].id, "C", 10, MFG)
    wh.place(slots[3].id, "D", 10, MFG)
    pol = StoragePolicy(PolicyKind.RANDOM, wh, SimConfig().stacker())
    return wh, pol


# -- truck grouping and route order ---------------------------------------


def test_trucks_group_in_first_appearance_order_and_reverse_within():
    wh, pol = _zoned_world()
    orders = [
        _order("O1", "T_B", ("A", 1)),
        _order("O2", "T_A", ("B", 1)),
        _order("O3", "T_B", ("C", 1)),
        _order("O4", "T_A", ("D", 1)),
    ]
    plan = prepare_orders(orders, PickingMode.AREA, wh, pol)
    assert [p.order.order_no for p in plan] == ["O3", "O1", "O4", "O2"]


def test_blank_truck_id_makes_a_solo_group():
    wh, pol = _zoned_world()
    orders = [_order("O1", "", ("A", 1)), _order("O2", "", ("B", 1))]
    plan = prepare_orders(orders, PickingMode.AREA, wh, pol)
    # two singleton groups in arrival order, nothing reversed across them
    assert [p.order.order_no for p in plan] == ["O1", "O2"]


def test_area_route_sorts_by_route_position():
    wh, pol = _zoned_world()
    plan = prepare_orders([_order("O1", "T", ("D", 1), ("A", 1), ("C", 1))],
                          PickingMode.AREA, wh, pol)
    entry = plan[0]
    assert [s.location.seq_no for s in entry.route] == [0, 2, 3]
    assert entry.seg_of == [0, 0, 0]


def test_zoning_route_groups_zones_into_sublists():
    wh, pol = _zoned_world()
    plan = prepare_orders([_order("O1", "T", ("D", 1), ("A", 1), ("C", 1), ("B", 1))],
                          PickingMode.ZONING, wh, pol)
    entry = plan[0]
    assert [s.location.zone for s in entry.route] == ["Z1", "Z1", "Z2", "Z2"]
    assert entry.seg_of == [0, 0, 1, 1]


def test_out_of_stock_line_routes_to_primary_slot():
    wh, pol = _zoned_world()
    wh.pick("A", 10)  # A fully drained
    plan = prepare_orders([_order("O1", "T", ("A", 2))], PickingMode.AREA, wh, pol)
    # shared storage: the designated stop is the first slot on the route
    assert plan[0].route[0].location.seq_no == 0


def test_line_with_zero_qty_rejected():
    with pytest.raises(InputDataError, match=">= 1"):
        _order("O1", "T", ("A", 0))


def test_order_without_lines_rejected():
    wh, pol = _zoned_world()
    orders = [_order("O1", "T", ("A", 1)), _order("O2", "T"), _order("O3", "T", ("B", 1))]
    with pytest.raises(InputDataError, match="^order O2 has no lines$"):
        prepare_orders(orders, PickingMode.AREA, wh, pol)


# -- handling arithmetic --------------------------------------------------


def test_handling_full_pallet_only():
    cfg = trace_cfg()  # BTpu 10, PPpu 15, PMpu 0
    assert handling_time([(1, 0)], cfg) == 25.0


def test_handling_empty_visit_is_free():
    assert handling_time([], trace_cfg()) == 0.0


def test_handling_with_master_cartons():
    cfg = SimConfig(BTpu=10.0, PPpu=15.0, PMpu=2.0, pieces_per_master=10)
    # one pallet touched, 25 loose pieces -> 3 cartons: 10 + 15 + 6
    assert handling_time([(1, 25)], cfg) == 31.0


def test_handling_sums_lines_within_a_visit():
    cfg = SimConfig(BTpu=10.0, PPpu=15.0, PMpu=2.0, pieces_per_master=10)
    # two lines in one visit: one base time, 3 pallets, 1 + 1 cartons
    assert handling_time([(2, 5), (1, 10)], cfg) == 10.0 + 45.0 + 4.0


# -- stall and resume -----------------------------------------------------


def _single_short_world():
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1)]
    items = [make_item("A", qpp=10)]
    initial = [((0, 1, 0), "A", 4, MFG)]
    orders = [("O1", "T", [("A", 9)])]
    return layout, items, initial, orders


def test_single_line_stockout_waits_for_restock():
    layout, items, initial, orders = _single_short_world()
    cfg = trace_cfg()
    completions, names, metrics, engine = engine_run(
        layout, items, initial, "random", None, orders, "area", cfg, 1,
        date(2024, 6, 3))
    # walk 30 -> resume planned at 30; grab 4 on hand, wait until t=100;
    # restock lands 10 (t=100), take remaining 5: 100 + (10 + 15) = 125
    assert completions == [125.0]
    assert metrics.wait_s == 70.0
    kinds = [type(ev.kind).__name__ for ev in engine.trace]
    assert kinds == ["StartPickOrder", "PartialPick", "Replenish", "PartialPick",
                     "Replenish"]


def test_multi_pallet_line_over_several_restocks():
    layout, items, initial, orders = _single_short_world()
    orders = [("O1", "T", [("A", 24)])]  # needs initial 4 + two full pallets
    cfg = trace_cfg()
    completions, _, metrics, _ = engine_run(
        layout, items, initial, "random", None, orders, "area", cfg, 1,
        date(2024, 6, 3))
    # single slot: restocks at 100 (drained instantly) and 200
    # resume at 200: all 20 remaining... only 10 on hand -> wait to 300
    assert completions is not None and completions[0] is not None
    assert completions[0] > 200.0
    assert metrics.handle_s > 0


def test_order_line_statuses_progress():
    line = OrderLine("A", 5)
    order = Order("O1", DT, "T", [line])
    assert [l.remaining for l in order.lines] == [5]
    line.remaining = 2
    assert [l.remaining for l in order.lines] == [2]
    line.remaining = 0
    assert [l.remaining for l in order.lines] == [0]


# -- orders file ----------------------------------------------------------


def test_orders_round_trip(tmp_path):
    orders = [
        _order("O1", "T1", ("A", 2), ("B", 3)),
        _order("O2", "", ("A", 1)),
    ]
    path = tmp_path / "orders.csv"
    save_orders(orders, str(path))
    catalog = {"A": make_item("A"), "B": make_item("B")}
    again = load_orders(str(path), catalog)
    assert [(o.order_no, o.truck_id, [(l.item, l.qty) for l in o.lines])
            for o in again] == [
        ("O1", "T1", [("A", 2), ("B", 3)]),
        ("O2", "", [("A", 1)]),
    ]


_OFF = ": order O1: date or truck differs from its first line$"


@pytest.mark.parametrize("later, exc, message", [
    pytest.param(["2024-06-24 09:00:00,O1,T1"], InputDataError, r"orders\.csv:3" + _OFF,
                 id="2024-06-24 09:00:00,O1,T1"),
    pytest.param(["2024-06-03 09:00:00,O1,T2"], InputDataError, r"orders\.csv:3" + _OFF,
                 id="2024-06-03 09:00:00,O1,T2"),
    # the same instant written differently is the same date
    pytest.param(["2024-06-03T09:00:00,O1,T1"], None, None, id="2024-06-03T09:00:00,O1,T1"),
    # a line that repeats the first line's text, then one that differs
    pytest.param(["2024-06-03 09:00:00,O1,T1", "2024-06-03 09:00:01,O1,T1"], InputDataError,
                 r"orders\.csv:4" + _OFF, id="repeat-then-2024-06-03 09:00:01"),
    pytest.param(["2024-06-03 09h,O1,T1"], ParseError,
                 r"orders\.csv:3: Invalid isoformat string: '2024-06-03 09h'$",
                 id="malformed-2024-06-03 09h"),
])
def test_order_line_off_its_orders_date_or_truck_rejected(tmp_path, later, exc, message):
    path = tmp_path / "orders.csv"
    path.write_text("order_datetime,order_no,truck_id,item_code,qty\n"
                    "2024-06-03 09:00:00,O1,T1,A,1\n"
                    + "".join(f"{cells},A,2\n" for cells in later))
    catalog = {"A": make_item("A")}
    if exc is None:
        (order,) = load_orders(str(path), catalog)
        assert order.order_datetime == datetime(2024, 6, 3, 9, 0)
        assert [l.qty for l in order.lines] == [1, 2]
    else:
        with pytest.raises(exc, match=message):
            load_orders(str(path), catalog)


def test_orders_unknown_item_rejected(tmp_path):
    path = tmp_path / "orders.csv"
    save_orders([_order("O1", "T", ("A", 1), ("ZZZ", 1))], str(path))
    with pytest.raises(InputDataError, match=r"orders\.csv:3: unknown item ZZZ"):
        load_orders(str(path), {"A": make_item("A")})
