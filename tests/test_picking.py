"""Picking plans, handling arithmetic, stall/resume behavior."""

from __future__ import annotations

import logging
from collections import Counter
from datetime import date, datetime

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import anchors, make_item, slot, trace_cfg
from runners import engine_run
import picksim.picking as picking_module
from picksim.config import config_from_dict
from picksim.events import Engine, Event, PartialPick, StartPickOrder
from picksim import (
    ENTRANCE_ID,
    SPECIAL_AREA_ID,
    Order,
    OrderLine,
    InfeasibleRunError,
    InputDataError,
    PalletRecord,
    ParseError,
    PickingMode,
    PickingSession,
    PolicyKind,
    ProcessTotals,
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
    travel_time,
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
    trace = []
    completions, names, metrics, _ = engine_run(
        layout, items, initial, "random", None, orders, "area", cfg, 1,
        date(2024, 6, 3), trace=trace)
    # 200 cm at 20 cm/s and a 3 s turn -> resume planned at 13; grab 4 on
    # hand, wait until t=100; restock lands 10 (t=100), take remaining 5
    # and walk 140 cm to the drop-off: 100 + (7 + 3) + (10 + 15) = 135
    assert completions == [135.0]
    assert metrics.wait_s == 87.0
    kinds = [type(ev.kind).__name__ for ev in trace]
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


def _stalled_session():
    """A session whose picker waits at line 0 of its one order, for 5 more
    pieces of A at slot (0, 1, 0), and the resume event it asked for."""
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1),
                          slot(0, 1, 1, 100.0, 200.0, seq=2)]
    warehouse = Warehouse(index_layout(layout), [make_item("A", qpp=10), make_item("B")])
    warehouse.place((0, 1, 0), "A", 4, MFG)
    warehouse.place((0, 1, 1), "B", 10, MFG)
    policy = StoragePolicy(PolicyKind.RANDOM, warehouse, SimConfig().stacker())
    cfg = trace_cfg()
    plan = prepare_orders([_order("O1", "T", ("A", 9), ("B", 1))], PickingMode.AREA,
                          warehouse, policy, cfg)
    session = PickingSession(warehouse, policy, cfg, plan, ProcessTotals())
    _, resume = session.handle_spo(None, Event(0.0, 0, StartPickOrder(0)))
    assert resume == PartialPick(0, 0, (0, 1, 0))
    return session, resume


@pytest.mark.parametrize("change, message", [
    ({"order": 1}, "resume event for an order that is not in flight"),
    ({"line": 1}, "resume event does not match the picker's position"),
    ({"location": (0, 1, 1)}, "resume event does not match the picker's position"),
    ({}, "resume event for a line that is already picked"),
], ids=["order", "line", "location", "picked"])
def test_a_resume_event_the_picker_did_not_ask_for_is_refused(change, message):
    """Each field of a resume event must be the picker's own: the order in
    flight, and the line index and the slot of the stop it waits at.  No
    event reaches a waiting picker that owes nothing, so that case sets
    the session's owed pieces to 0 by hand."""
    session, resume = _stalled_session()
    if not change:
        session._owed = 0
    with pytest.raises(AssertionError) as exc:
        session.handle_pp(None, Event(30.0, 1, resume._replace(**change)))
    assert str(exc.value) == message


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
def test_a_week_books_the_walking_its_plan_priced(picking):
    """Without a stall every stop is walked to once, so the booked walking
    is the plan's, to the bit."""
    wh, pol = _two_row_world()
    orders = [_order("O1", "T", ("D", 2), ("A", 1), ("C", 3), ("B", 2)),
              _order("O2", "T", ("B", 1), ("C", 1)),
              _order("O3", "U", ("A", 2), ("D", 1))]
    # no restocking visit comes before the picker is done, so every turn is the picker's
    cfg = config_from_dict({"replenish": {"mu_s": 1e6}})
    trace = []
    session, _ = run_week(wh, pol, orders, PickingMode(picking), cfg, 1, MFG, trace=trace)
    assert not any(isinstance(ev.kind, PartialPick) for ev in trace)
    assert session.metrics.put_travel_s == 0.0
    assert (session.metrics.walk_s, session.metrics.turns) == _planned_walking(session.plan)
    assert session.metrics.walk_s > 0


@pytest.mark.parametrize("short, line", [("A", 1), ("C", 2)])
@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_a_stalled_order_books_each_planned_leg_once(picking, short, line):
    """The picker waits at the short line of O1 and resumes from there: the
    walk to it is booked by the traversal that stalls, not again.  A is the
    route's first stop; under zoning, C opens the second sublist."""
    wh, pol = _two_row_world(short)
    orders = [_order("O1", "T", ("D", 8), ("A", 8), ("C", 8), ("B", 2)),
              _order("O2", "T", ("A", 1), ("C", 1))]
    cfg = config_from_dict({"replenish": {"mu_s": 1000.0}})
    # the turns of the restocking visits, which share ``turns`` with the picker's
    put_turns = []
    put_away = pol.put_away

    def counted(*args):
        assignment = put_away(*args)
        if assignment is not None:  # a skipped visit
            put_turns.append(assignment.turns)
        return assignment

    pol.put_away = counted
    trace = []
    session, _ = run_week(wh, pol, orders, PickingMode(picking), cfg, 1, MFG, trace=trace)
    stalls = [ev.kind for ev in trace if isinstance(ev.kind, PartialPick)]
    assert {(kind.order, kind.line) for kind in stalls} == {(1, line)}
    assert session.metrics.wait_s > 0
    walk, turns = _planned_walking(session.plan)
    assert (session.metrics.walk_s, session.metrics.turns - sum(put_turns)) == (walk, turns)
    assert None not in session.completions


@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_a_week_leaves_its_plan_as_it_was_planned(picking):
    """O2 goes first (a truck's orders are picked back to front) and takes 1
    of the 3 A on hand.  At O1's short line of 8 A the picker grabs the
    other 2, waits, and on resume picks the 6 it still owes.  The week's
    plan is then the plan of the same orders on a fresh warehouse stocked
    alike."""
    wh, pol = _two_row_world("A")
    orders = [_order("O1", "T", ("D", 8), ("A", 8), ("C", 8), ("B", 2)),
              _order("O2", "T", ("A", 1), ("C", 1))]
    cfg = config_from_dict({"replenish": {"mu_s": 1000.0}})
    picks = []
    pick = wh.pick

    def counted(item, qty):
        picks.append((item, qty))
        return pick(item, qty)

    wh.pick = counted
    session, engine = run_week(wh, pol, orders, PickingMode(picking), cfg, 1, MFG)
    assert [qty for item, qty in picks if item == "A"] == [1, 2, 6]
    assert None not in session.completions
    fresh_wh, fresh_pol = _two_row_world("A")
    assert session.plan == prepare_orders(orders, PickingMode(picking), fresh_wh, fresh_pol, cfg)


def _route_legs(plan):
    """``(from id, to id)`` of every leg the plan walks, in route order: the
    drop-off leg that closes each sublist but the last, the leg into each
    stop, and the exit from the last stop."""
    legs = []
    for entry in plan:
        at, sublist = ENTRANCE_ID, 0
        for stop in entry.route:
            if stop.sublist != sublist:
                legs.append((at, SPECIAL_AREA_ID))
                at, sublist = ENTRANCE_ID, stop.sublist
            legs.append((at, stop.location.id))
            at = stop.location.id
        legs.append((at, SPECIAL_AREA_ID))
    return legs


@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_a_week_prices_its_legs_with_one_leg_function(monkeypatch, picking):
    """A week prices each distinct leg with one ``travel_time`` call,
    however often routes walk it (O3 and O4 walk the same route)."""
    calls = []

    def recorded(a, b, eq):
        calls.append((a.id, b.id))
        return travel_time(a, b, eq)

    monkeypatch.setattr(picking_module, "travel_time", recorded)
    wh, pol = _two_row_world()
    orders = [_order("O1", "T", ("D", 2), ("A", 1), ("C", 3), ("B", 2)),
              _order("O2", "T", ("B", 1), ("C", 1)),
              _order("O3", "U", ("A", 2), ("D", 1)),
              _order("O4", "U", ("D", 1), ("A", 1))]
    plan = prepare_orders(orders, PickingMode(picking), wh, pol, SimConfig())
    legs = _route_legs(plan)
    assert len(set(legs)) < len(legs)
    assert Counter(calls) == Counter(set(legs))


@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_a_pallet_stored_further_away_is_walked_to_for_longer(picking):
    """Walking sees where a pallet stands.  A's one pallet stands at (300,
    100) or at (300, 400); the entrance is at (0, 0), the drop-off at
    (0, 60), and each of the two legs changes row, so makes one turn.  At
    20 cm/s with a 3 s turn the near route walks 400 + 340 cm, 20 + 17 + 6
    = 43 s, and the far one 700 + 640 cm, 35 + 32 + 6 = 73 s."""
    cfg = SimConfig(sps=20.0, tts=3.0)
    walked = []
    for x, y in ((300.0, 100.0), (300.0, 400.0)):
        where = slot(0, 1, 0, x, y, zone="Z1", seq=0)
        wh = Warehouse(index_layout(anchors() + [where]), [make_item("A", zone="Z1")])
        wh.place(where.id, "A", 10, MFG)
        pol = StoragePolicy(PolicyKind.RANDOM, wh, cfg.stacker())
        plan = prepare_orders([_order("O1", "T", ("A", 1))], PickingMode(picking), wh, pol,
                              cfg)
        walked.append(_planned_walking(plan))
    assert walked == [(43.0, 2), (73.0, 2)]


def test_a_picker_waiting_in_a_full_warehouse_stops_the_week_at_once():
    """Random storage with both slots holding B's pallets while the picker
    waits for A: only the picker drains slots, so no visit can ever restock
    A, and the week stops at the picker's first resume."""
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1),
                          slot(0, 1, 1, 100.0, 200.0, seq=2)]
    initial = [((0, 1, 0), "B", 10, MFG), ((0, 1, 1), "B", 10, MFG)]
    with pytest.raises(InfeasibleRunError) as exc:
        engine_run(layout, [make_item("A"), make_item("B")], initial, "random", None,
                   [("O1", "T", [("A", 1)])], "area", trace_cfg(), 1, MFG)
    assert str(exc.value) == (
        "cannot finish: at t=13.0 s the picker is waiting for order O1, line index 0, item A, "
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


# the simulated time past which the unchecked week counts as never finishing
_BOUND_S = 20_000.0


class _PastBound(Exception):
    """Raised by ``_Bounded`` with the engine whose clock passed ``_BOUND_S``."""

    def __init__(self, engine):
        super().__init__(f"t={engine.now} s is past {_BOUND_S} s")
        self.engine = engine


class _Bounded(Engine):
    """An engine whose observer stops the week at its first event past
    ``_BOUND_S``, after calling the observer ``run_week`` gave it; a run has
    no time limit of its own."""

    def __init__(self, picker, replenisher, observe=None):
        def bounded(event):
            if observe is not None:
                observe(event)
            if event.time > _BOUND_S:
                raise _PastBound(self)

        super().__init__(picker, replenisher, bounded)


def _overflow_week(world, session=PickingSession, engine=Engine):
    """Stock a fresh warehouse of ``world`` through ``place_initial``, which
    must fall back, and run its week with ``session`` as the picker on
    ``engine``."""
    layout, items, slot_map, pallets, orders = world
    cfg = trace_cfg()
    wh = Warehouse(index_layout(layout), items)
    pol = StoragePolicy(PolicyKind.FIXED, wh, cfg.stacker(), slot_map=slot_map)
    assert place_initial(pol, pallets, {}) >= 1
    built = [Order(no, DT, truck, [OrderLine(code, qty) for code, qty in lines])
             for no, truck, lines in orders]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "PickingSession", session)
        patch.setattr(experiment, "Engine", engine)
        return run_week(wh, pol, built, PickingMode.AREA, cfg, 1, MFG)


@settings(max_examples=60, deadline=None)
@given(world=overflowing_worlds())
def test_a_week_stops_where_it_gets_stuck_and_only_where_it_could_never_finish(world):
    """Whenever the stall check fires, the same week without the check is
    still unfinished when its clock passes 20,000 s; a week where it never
    fires finishes."""
    try:
        session, _ = _overflow_week(world)
    except InfeasibleRunError:
        event("stuck")
        with pytest.raises(_PastBound) as stopped:
            _overflow_week(world, _Unchecked, _Bounded)
        engine = stopped.value.engine
        assert None in engine._picker.completions
        assert engine.next_pick is not None
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
