"""Order picking: plan construction, handling arithmetic, pick/resume handlers.

Plan construction groups a horizon's orders by delivery truck (groups in
first-appearance order) and reverses each truck's orders so the last
delivery stop is picked first (trucks unload back to front).  Within an
order, lines are visited in ascending route position of the slot each
line will draw from (the oldest pallet's slot, or the item's designated
slot while it is out of stock).  Zone picking additionally groups a
route into per-zone sublists; sublists are worked one after another by
the zone staff, and consolidating them afterwards costs nothing.

Execution is strictly sequential: one order is in flight at a time and
the next order starts the moment the previous one is done.  An order
with enough stock for every line is picked in one visit; its completion
is start + walking + handling.  Otherwise the picker works the route up
to the first short line, a resume event is scheduled for the estimated
arrival there (walking so far plus handling of the lines already done),
and the picker waits at that slot: whatever is on hand is taken, and
the rest arrives via replenishment, re-checked immediately after each
restocking visit.

Each traversal is one pass over the route from the picker's position:
at every stop it books the walking there, then either finds the line
short and stops, or picks it in full.  A line is short when it needs
more than is on hand at that moment.  Every earlier line of the
traversal was picked in full, so this is the same as asking whether the
lines of its item up to and including it need more than the stock the
traversal started with.

Time accounting convention (kept identical in the brute-force test
oracle, so do not reorder): every milestone timestamp is built as
``now``, plus each walking leg in route order, plus each per-sublist
handling total in route order.  Handling is charged for the quantity a
traversal takes, once per sublist visit.  The pieces grabbed at a stall
are charged nothing: the resume visit charges handling for the rest of
the line only.  Every term is booked in ``ProcessTotals`` where it is
added to the clock, so per week the last completion equals walking plus
handling plus stall waiting.
"""

from __future__ import annotations

import enum
import logging
from datetime import datetime
from typing import NamedTuple

from .config import SimConfig, WALK_CONSTANT
from .errors import InputDataError
from .events import Engine, Event, PartialPick, StartPickOrder
from .storage import StoragePolicy
from .warehouse import (
    ENTRANCE_ID,
    SPECIAL_AREA_ID,
    Equipment,
    Item,
    Location,
    LocationId,
    ProcessTotals,
    Warehouse,
    _read_csv,
    _Record,
    _write_csv,
    aisle_turns,
    travel_time,
)

log = logging.getLogger("picksim.picking")


class PickingMode(enum.Enum):
    AREA = "area"
    ZONING = "zoning"


class OrderLine(_Record):
    """One line of an order; ``remaining`` starts at ``qty`` and counts down
    as the line is picked."""

    __slots__ = ("item", "qty", "remaining")

    def __init__(self, item: str, qty: int):
        if qty < 1:
            raise InputDataError(f"order line of {item}: qty must be >= 1")
        self.item = item
        self.qty = qty
        self.remaining = qty


class Order(_Record):
    __slots__ = ("order_no", "order_datetime", "truck_id", "lines")

    def __init__(self, order_no: str, order_datetime: datetime, truck_id: str,
                 lines: list[OrderLine]):
        self.order_no = order_no
        self.order_datetime = order_datetime
        self.truck_id = truck_id
        self.lines = lines


class RouteStop(NamedTuple):
    line_index: int
    location: Location


class PlanEntry(_Record):
    """One order with its resolved visiting route; ``seg_of[p]`` is the
    sublist that route stop ``p`` belongs to."""

    __slots__ = ("order", "route", "seg_of")

    def __init__(self, order: Order, route: list[RouteStop], seg_of: list[int]):
        self.order = order
        self.route = route
        self.seg_of = seg_of


PickPlan = list[PlanEntry]
PickerEvent = tuple[float, StartPickOrder | PartialPick]


def prepare_orders(orders: list[Order], mode: PickingMode, warehouse: Warehouse,
                   policy: StoragePolicy) -> PickPlan:
    """Build the pick plan for a horizon's orders against current stock;
    an order without lines raises ``InputDataError``."""
    groups: dict[str, list[Order]] = {}
    group_seq: list[str] = []
    for order in orders:
        if not order.lines:
            raise InputDataError(f"order {order.order_no} has no lines")
        key = order.truck_id
        if not key:
            key = f"#solo:{order.order_no}"
            log.warning("order %s has no truck id; treating it as its own group", order.order_no)
        if key not in groups:
            groups[key] = []
            group_seq.append(key)
        groups[key].append(order)

    plan: PickPlan = []
    for key in group_seq:
        for order in reversed(groups[key]):
            plan.append(_plan_entry(order, mode, warehouse, policy))
    return plan


def _plan_entry(order: Order, mode: PickingMode, warehouse: Warehouse,
                policy: StoragePolicy) -> PlanEntry:
    stops: list[RouteStop] = []
    for idx, line in enumerate(order.lines):
        record = warehouse.fifo_lot(line.item)
        if record is not None:
            loc = warehouse.location(record.location)
        else:
            loc = policy.primary_location(line.item)
        stops.append(RouteStop(idx, loc))
    if mode is PickingMode.AREA:
        stops.sort(key=lambda st: (st.location.seq_no, st.line_index))
        seg_of = [0] * len(stops)
    else:
        stops.sort(key=lambda st: (st.location.zone, st.location.seq_no, st.line_index))
        seg_of = []
        seg = -1
        for i, st in enumerate(stops):
            if i == 0 or st.location.zone != stops[i - 1].location.zone:
                seg += 1
            seg_of.append(seg)
    return PlanEntry(order, stops, seg_of)


def handling_time(entries: list[tuple[int, int]], cfg: SimConfig) -> float:
    """Handling seconds for one picking visit.

    ``entries`` holds ``(pallets_touched, loose_pieces)`` per line taken
    during the visit; loose pieces are the ones not taken as a whole
    pallet and are handled in master cartons.  An empty visit costs
    nothing, otherwise one base time plus the per-pallet and per-carton
    terms.
    """
    if not entries:
        return 0.0
    per_master = cfg.pieces_per_master
    pallets = masters = 0
    for touched, loose in entries:
        pallets += touched
        masters += -(-loose // per_master)
    return cfg.BTpu + cfg.PPpu * pallets + cfg.PMpu * masters


class PickingSession:
    """Mutable state of one weekly run's picking side.

    Owns the plan, the per-order completion times, and the position of
    the (single) picker inside the active order's route.
    """

    def __init__(self, warehouse: Warehouse, cfg: SimConfig, plan: PickPlan,
                 metrics: ProcessTotals):
        self.warehouse = warehouse
        self.cfg = cfg
        self.plan = plan
        self.metrics = metrics
        self.walk_eq: Equipment = cfg.walking_equipment()
        self.entrance = warehouse.location(ENTRANCE_ID)
        self.dropoff = warehouse.location(SPECIAL_AREA_ID)
        self.completions: list[float | None] = [None] * len(plan)
        self._active: int | None = None
        # route position of the short line the picker waits at, if any
        self._at_stop: int | None = None
        # (from id, to id) -> (aisle turns, travel seconds) of a walking leg
        self._legs: dict[tuple[LocationId, LocationId], tuple[int, float]] = {}

    # -- event handlers ----------------------------------------------------

    def handle_spo(self, sim: Engine, event: Event) -> PickerEvent | None:
        self._active = event.kind.order
        self._at_stop = None
        return self._advance(event.time)

    def handle_pp(self, sim: Engine, event: Event) -> PickerEvent | None:
        kind = event.kind
        i = kind.order
        assert self._active == i, "resume event for an order that is not in flight"
        entry = self.plan[i]
        stop = entry.route[self._at_stop]
        assert stop.line_index == kind.line and stop.location.id == kind.location, (
            "resume event does not match the picker's position"
        )
        line = entry.order.lines[kind.line]
        assert line.remaining > 0, "resume event for a line that is already picked"
        avail = self.warehouse.total_on_hand(line.item)
        if avail >= line.remaining:
            return self._advance(event.time)
        if avail > 0:
            # taken while waiting: the clock charges no handling for it
            self.warehouse.pick(line.item, avail)
            line.remaining -= avail
        t_rp = sim.next_visit.time
        self.metrics.wait_s += t_rp - event.time
        return (t_rp, kind)

    # -- core traversal ----------------------------------------------------

    def _advance(self, now: float) -> PickerEvent | None:
        """Work the active order forward from the picker's position in one
        pass over its route.

        At each stop the walking there goes onto the clock and the totals;
        then the line is short, and the traversal stops there, or it is
        picked in full.  Constant walking charges ``constant_s`` on
        entering each sublist.  Distance walking walks the concrete path:
        each sublist starts from the entrance and ends at the drop-off
        point, and a stalled traversal ends at the short line's slot and
        resumes from there.  Per-sublist handling is added after the walk.
        Returns the next order's start event (order done), ``None`` (last
        order done) or the resume event at the short line's slot.
        """
        i = self._active
        assert i is not None
        entry = self.plan[i]
        route = entry.route
        seg_of = entry.seg_of
        lines = entry.order.lines
        # every plan line's item is in the catalog: prepare_orders looked up its lot
        on_hand = self.warehouse._on_hand
        pick = self.warehouse.pick
        metrics = self.metrics
        walking = self.cfg.walking
        constant = walking.mode == WALK_CONSTANT
        start = self._at_stop
        if start is None:
            pos, cur_point, cur_seg = 0, self.entrance, -1
        else:
            pos, cur_point, cur_seg = start, route[start].location, seg_of[start]

        t = now
        # one picking visit ("call") per sublist picked from, in route order
        calls: list[list[tuple[int, int]]] = []
        call_seg = -1
        stall: int | None = None
        for p in range(pos, len(route)):
            seg = seg_of[p]
            if constant:
                # sublists only increase along a route: a new one is entered here
                if seg != cur_seg:
                    t += walking.constant_s
                    metrics.walk_s += walking.constant_s
            elif p != start:
                loc = route[p].location
                if seg != cur_seg and cur_seg != -1:
                    leg = self._leg(cur_point, self.dropoff)
                    t += leg
                    metrics.walk_s += leg
                    cur_point = self.entrance
                leg = self._leg(cur_point, loc)
                t += leg
                metrics.walk_s += leg
                cur_point = loc
            cur_seg = seg
            line = lines[route[p].line_index]
            if line.remaining > on_hand[line.item]:
                stall = p
                break
            if seg != call_seg:
                calls.append([])
                call_seg = seg
            calls[-1].append(pick(line.item, line.remaining))
            line.remaining = 0
        else:
            if not constant:
                leg = self._leg(cur_point, self.dropoff)
                t += leg
                metrics.walk_s += leg

        for entries in calls:
            handle = handling_time(entries, self.cfg)
            t += handle
            metrics.handle_s += handle

        if stall is None:
            self.completions[i] = t
            self._active = None
            if i + 1 < len(self.plan):
                return (t, StartPickOrder(i + 1))
            return None
        self._at_stop = stall
        stop = route[stall]
        return (t, PartialPick(i, stop.line_index, stop.location.id))

    def _leg(self, a: Location, b: Location) -> float:
        """Seconds of one walking leg, its turns booked; each pair of points
        is computed once per week."""
        key = (a.id, b.id)
        leg = self._legs.get(key)
        if leg is None:
            turns = aisle_turns(a, b)
            leg = self._legs[key] = (turns, travel_time(a, b, self.walk_eq, turns))
        self.metrics.turns += leg[0]
        return leg[1]


# -- orders file ---------------------------------------------------------

ORDERS_HEADER = ["order_datetime", "order_no", "truck_id", "item_code", "qty"]


def load_orders(path: str, items: dict[str, Item]) -> list[Order]:
    orders: dict[str, Order] = {}
    # order_no -> order_datetime text of the order's first line; a later
    # line with the same text is not parsed again
    first_text: dict[str, str] = {}

    def add_line(cells: list[str]) -> None:
        order_datetime, order_no, truck_id, item_code, qty = cells
        order = orders.get(order_no)
        if order is not None and order_datetime == first_text[order_no]:
            when = order.order_datetime
        else:
            when = datetime.fromisoformat(order_datetime)
        line = OrderLine(item_code, int(qty))
        if item_code not in items:
            raise InputDataError(f"unknown item {item_code}")
        if order is None:
            order = orders[order_no] = Order(order_no, when, truck_id, [])
            first_text[order_no] = order_datetime
        elif (when, truck_id) != (order.order_datetime, order.truck_id):
            raise InputDataError(f"order {order_no}: date or truck differs from its first line")
        order.lines.append(line)

    _read_csv(path, ORDERS_HEADER, add_line)
    return list(orders.values())


def save_orders(orders: list[Order], path: str) -> None:
    _write_csv(path, ORDERS_HEADER, (
        [order.order_datetime.isoformat(sep=" "), order.order_no, order.truck_id,
         line.item, line.qty]
        for order in orders for line in order.lines
    ))
