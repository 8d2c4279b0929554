"""Picking plans, handling arithmetic, stall/resume behavior."""

from __future__ import annotations

import logging
from datetime import date, datetime

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import anchors, make_item, slot, trace_cfg
from runners import engine_run
from picksim.config import config_from_dict
from picksim.events import PartialPick
from picksim import (
    Order,
    OrderLine,
    InfeasibleRunError,
    InputDataError,
    PalletRecord,
    ParseError,
    PickingMode,
    PickingSession,
    PolicyKind,
    SimConfig,
    StoragePolicy,
    Warehouse,
    handling_time,
    index_layout,
    experiment,
    load_orders,
    place_initial,
    prepare_orders,
    run_week,
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
    wh = Warehouse(index_layout(anchors() + slots), items)
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
    plan = prepare_orders(orders, PickingMode.AREA, wh, pol, SimConfig())
    assert [p.order.order_no for p in plan] == ["O3", "O1", "O4", "O2"]


def test_blank_truck_id_makes_a_solo_group():
    wh, pol = _zoned_world()
    orders = [_order("O1", "", ("A", 1)), _order("O2", "", ("B", 1))]
    plan = prepare_orders(orders, PickingMode.AREA, wh, pol, SimConfig())
    # two singleton groups in arrival order, nothing reversed across them
    assert [p.order.order_no for p in plan] == ["O1", "O2"]


def test_blank_truck_id_warns_on_the_picking_logger(caplog):
    wh, pol = _zoned_world()
    with caplog.at_level(logging.WARNING, logger="picksim.picking"):
        prepare_orders([_order("O1", "", ("A", 1)), _order("O2", "T", ("B", 1))],
                       PickingMode.AREA, wh, pol, SimConfig())
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("picksim.picking", logging.WARNING,
         "order O1 has no truck id; treating it as its own group")]


def test_area_route_sorts_by_route_position():
    wh, pol = _zoned_world()
    plan = prepare_orders([_order("O1", "T", ("D", 1), ("A", 1), ("C", 1))],
                          PickingMode.AREA, wh, pol, SimConfig())
    entry = plan[0]
    assert [s.location.seq_no for s in entry.route] == [0, 2, 3]
    assert [s.sublist for s in entry.route] == [0, 0, 0]


def test_zoning_route_groups_zones_into_sublists():
    wh, pol = _zoned_world()
    plan = prepare_orders([_order("O1", "T", ("D", 1), ("A", 1), ("C", 1), ("B", 1))],
                          PickingMode.ZONING, wh, pol, SimConfig())
    entry = plan[0]
    assert [s.location.zone for s in entry.route] == ["Z1", "Z1", "Z2", "Z2"]
    assert [s.sublist for s in entry.route] == [0, 0, 1, 1]


def test_out_of_stock_line_routes_to_primary_slot():
    wh, pol = _zoned_world()
    wh.pick("A", 10)  # A fully drained
    plan = prepare_orders([_order("O1", "T", ("A", 2))], PickingMode.AREA, wh, pol, SimConfig())
    # shared storage: the designated stop is the first slot on the route
    assert plan[0].route[0].location.seq_no == 0


def test_line_with_zero_qty_rejected():
    wh, pol = _zoned_world()
    orders = [_order("O1", "T", ("A", 1), ("B", 0))]
    with pytest.raises(InputDataError, match="^order line of B: qty must be >= 1$"):
        prepare_orders(orders, PickingMode.AREA, wh, pol, SimConfig())


def test_order_without_lines_rejected():
    wh, pol = _zoned_world()
    orders = [_order("O1", "T", ("A", 1)), _order("O2", "T"), _order("O3", "T", ("B", 1))]
    with pytest.raises(InputDataError, match="^order O2 has no lines$"):
        prepare_orders(orders, PickingMode.AREA, wh, pol, SimConfig())


# -- handling arithmetic --------------------------------------------------


def test_handling_full_pallet_only():
    cfg = trace_cfg()  # BTpu 10, PPpu 15, PMpu 0
    assert handling_time(1, 0, cfg) == 25.0


def test_handling_empty_visit_is_free():
    assert handling_time(0, 0, trace_cfg()) == 0.0


def _carton_world():
    """A on two pallets of 10 and B on one of 20, in three slots of one row."""
    layout = anchors() + [slot(0, 1, k, 100.0, 100.0 * (k + 1), seq=k + 1) for k in range(3)]
    items = [make_item("A", qpp=10), make_item("B", qpp=20)]
    initial = [((0, 1, 0), "A", 10, MFG), ((0, 1, 1), "A", 10, date(2024, 5, 2)),
               ((0, 1, 2), "B", 20, MFG)]
    return layout, items, initial


def test_handling_with_master_cartons():
    layout, items, initial = _carton_world()
    cfg = trace_cfg(PMpu=2.0, pieces_per_master=10)
    # one pallet of B touched, 15 loose pieces -> 2 cartons: 10 + 15 + 4
    _, _, metrics, _ = engine_run(layout, items, initial, "random", None,
                                  [("O1", "T", [("B", 15)])], "area", cfg, 1, MFG)
    assert metrics.handle_s == 29.0


def test_handling_sums_lines_within_a_visit():
    layout, items, initial = _carton_world()
    cfg = trace_cfg(PMpu=2.0, pieces_per_master=10)
    # two lines in one visit: one base time, 3 pallets, and each line's 5
    # loose pieces rounded up on its own, 1 + 1 cartons
    _, _, metrics, _ = engine_run(layout, items, initial, "random", None,
                                  [("O1", "T", [("A", 15), ("B", 5)])], "area", cfg, 1, MFG)
    assert metrics.handle_s == 10.0 + 45.0 + 4.0
    assert handling_time(3, 2, cfg) == 10.0 + 45.0 + 4.0


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


# -- planned walking ------------------------------------------------------


def _planned_walking(plan):
    """The walking seconds and turns of ``plan``, summed in plan order as a
    week books them."""
    walk, turns = 0.0, 0
    for entry in plan:
        for stop in entry.route:
            walk += stop.drop_s
            walk += stop.walk_s
            turns += stop.turns
        walk += entry.exit_s
        turns += entry.exit_turns
    return walk, turns


def _two_row_world(short=None):
    """Two zones on two rows with a vacant slot in each; item ``short`` has 3
    pieces on hand, and every other item has 10."""
    slots = [
        slot(0, 1, 0, 300.0, 100.0, zone="Z1", seq=0),
        slot(0, 1, 1, 300.0, 250.0, zone="Z1", seq=1),
        slot(0, 1, 2, 300.0, 400.0, zone="Z1", seq=2),
        slot(1, 1, 0, 700.0, 100.0, zone="Z2", seq=3),
        slot(1, 1, 1, 700.0, 250.0, zone="Z2", seq=4),
        slot(1, 1, 2, 700.0, 400.0, zone="Z2", seq=5),
    ]
    items = [make_item("A", zone="Z1"), make_item("B", zone="Z1"),
             make_item("C", zone="Z2"), make_item("D", zone="Z2")]
    wh = Warehouse(index_layout(anchors() + slots), items)
    for loc, code in zip((slots[0], slots[1], slots[3], slots[4]), "ABCD"):
        wh.place(loc.id, code, 3 if code == short else 10, MFG)
    return wh, StoragePolicy(PolicyKind.RANDOM, wh, SimConfig().stacker())


@pytest.mark.parametrize("picking", ["area", "zoning"])
@pytest.mark.parametrize("walking", ["constant", "distance"])
def test_a_week_books_the_walking_its_plan_priced(walking, picking):
    """Without a stall every stop is walked to once, so the booked walking
    is the plan's, to the bit."""
    wh, pol = _two_row_world()
    orders = [_order("O1", "T", ("D", 2), ("A", 1), ("C", 3), ("B", 2)),
              _order("O2", "T", ("B", 1), ("C", 1)),
              _order("O3", "U", ("A", 2), ("D", 1))]
    # no restocking visit comes before the picker is done, so every turn is the picker's
    cfg = config_from_dict({"walking": {"mode": walking}, "replenish": {"mu_s": 1e6}})
    session, engine = run_week(wh, pol, orders, PickingMode(picking), cfg, 1, MFG)
    assert not any(isinstance(ev.kind, PartialPick) for ev in engine.trace)
    assert session.metrics.put_travel_s == 0.0
    assert (session.metrics.walk_s, session.metrics.turns) == _planned_walking(session.plan)
    assert session.metrics.walk_s > 0


@pytest.mark.parametrize("short, line", [("A", 1), ("C", 2)])
@pytest.mark.parametrize("picking", ["area", "zoning"])
@pytest.mark.parametrize("walking", ["constant", "distance"])
def test_a_stalled_order_books_each_planned_leg_once(walking, picking, short, line):
    """The picker waits at the short line of O1 and resumes from there: the
    walk to it is booked by the traversal that stalls, not again.  A is the
    route's first stop; under zoning, C opens the second sublist."""
    wh, pol = _two_row_world(short)
    orders = [_order("O1", "T", ("D", 8), ("A", 8), ("C", 8), ("B", 2)),
              _order("O2", "T", ("A", 1), ("C", 1))]
    cfg = config_from_dict({"walking": {"mode": walking}, "replenish": {"mu_s": 1000.0}})
    # the turns of the restocking visits, which share ``turns`` with the picker's
    put_turns = []
    put_away = pol.put_away

    def counted(*args):
        assignment = put_away(*args)
        put_turns.append(assignment.turns)
        return assignment

    pol.put_away = counted
    session, engine = run_week(wh, pol, orders, PickingMode(picking), cfg, 1, MFG)
    stalls = [ev.kind for ev in engine.trace if isinstance(ev.kind, PartialPick)]
    assert {(kind.order, kind.line) for kind in stalls} == {(1, line)}
    assert session.metrics.wait_s > 0
    walk, turns = _planned_walking(session.plan)
    assert (session.metrics.walk_s, session.metrics.turns - sum(put_turns)) == (walk, turns)
    assert [entry.remaining for entry in session.plan] == [[0, 0], [0, 0, 0, 0]]


def test_a_picker_waiting_in_a_full_warehouse_stops_the_week_at_once():
    """Random storage with both slots holding B's pallets while the picker
    waits for A: only the picker drains slots, so no visit can ever restock
    A, and the week stops at the picker's first resume, not at the horizon."""
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1),
                          slot(0, 1, 1, 100.0, 200.0, seq=2)]
    initial = [((0, 1, 0), "B", 10, MFG), ((0, 1, 1), "B", 10, MFG)]
    with pytest.raises(InfeasibleRunError) as exc:
        engine_run(layout, [make_item("A"), make_item("B")], initial, "random", None,
                   [("O1", "T", [("A", 1)])], "area", trace_cfg(), 1, MFG)
    assert str(exc.value) == (
        "cannot finish: at t=30.0 s the picker is waiting for order O1, line index 0, item A, "
        "at slot (0, 1, 0), and no visit can restock A: the warehouse is full")


@st.composite
def overflowing_worlds(draw):
    """A small fixed-storage world whose initial pallets of one item
    outnumber that item's slots, so ``place_initial`` puts the surplus in
    other items' slots: ``(layout, items, slot map, pallets, orders)``."""
    codes = "ABC"[:draw(st.integers(2, 3))]
    storage = [slot(k // 3, 1, k % 3, 100.0 + 200.0 * (k // 3), 100.0 * (k % 3 + 1), seq=k)
               for k in range(draw(st.integers(len(codes) + 1, 6)))]
    owners = [*codes, *(draw(st.sampled_from(codes)) for _ in storage[len(codes):])]
    slot_map = {code: [loc.id for loc, owner in zip(storage, owners) if owner == code]
                for code in codes}
    heavy = draw(st.sampled_from(codes))
    surplus = draw(st.integers(1, len(storage) - len(slot_map[heavy])))
    held = [heavy] * (len(slot_map[heavy]) + surplus)
    held += draw(st.lists(st.sampled_from(codes), max_size=len(storage) - len(held)))
    pallets = [PalletRecord((9, 9, k), code, draw(st.integers(1, 5)), date(2024, 5, 1 + k))
               for k, code in enumerate(held)]
    orders = [(f"O{k}", "T", draw(st.lists(st.tuples(st.sampled_from(codes), st.integers(1, 8)),
                                           min_size=1, max_size=2)))
              for k in range(draw(st.integers(1, 3)))]
    items = [make_item(code, qpp=5) for code in codes]
    return anchors() + storage, items, slot_map, pallets, orders


class _AnyVacant:
    """What a picking session sees of the storage policy, which it reads
    only for the stall check: every item has a vacant candidate slot."""

    def __init__(self, policy):
        self._policy = policy

    def nearest_vacant(self, item):
        return self._policy.receiving


class _Unchecked(PickingSession):
    """A picking session whose stall check never fires."""

    def __init__(self, warehouse, policy, *args):
        super().__init__(warehouse, _AnyVacant(policy), *args)


_HORIZON_CFG = trace_cfg(horizon_s=20_000.0)


def _overflow_week(world, session=PickingSession):
    """Stock a fresh warehouse of ``world`` through ``place_initial``, which
    must fall back, and run its week with ``session`` as the picker."""
    layout, items, slot_map, pallets, orders = world
    wh = Warehouse(index_layout(layout), items)
    pol = StoragePolicy(PolicyKind.FIXED, wh, _HORIZON_CFG.stacker(), slot_map=slot_map)
    assert place_initial(pol, pallets, {}) >= 1
    built = [Order(no, DT, truck, [OrderLine(code, qty) for code, qty in lines])
             for no, truck, lines in orders]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "PickingSession", session)
        return run_week(wh, pol, built, PickingMode.AREA, _HORIZON_CFG, 1, MFG)


@settings(max_examples=60, deadline=None)
@given(world=overflowing_worlds())
def test_a_week_stops_where_it_gets_stuck_and_only_where_it_could_never_finish(world):
    """Whenever the stall check fires, the same week without the check runs
    to its horizon unfinished; a week where it never fires finishes."""
    try:
        session, _ = _overflow_week(world)
    except InfeasibleRunError:
        event("stuck")
        session, engine = _overflow_week(world, _Unchecked)
        assert None in session.completions
        assert engine.next_pick is not None
        assert min(engine.next_pick.time, engine.next_visit.time) > _HORIZON_CFG.horizon_s
    else:
        assert None not in session.completions


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
