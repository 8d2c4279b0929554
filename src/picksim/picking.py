"""Order picking: plan construction, handling arithmetic, pick/resume handlers.

Plan construction groups a horizon's orders by delivery truck (groups in
first-appearance order) and reverses each truck's orders so the last
delivery stop is picked first (trucks unload back to front).  Within an
order, lines are visited in ascending route position of the slot each
line will draw from (the oldest pallet's slot, or the item's designated
slot while it is out of stock).  Zone picking additionally groups a
route into per-zone sublists; sublists are worked one after another by
the zone staff, and consolidating them afterwards costs nothing.  An
order without a truck id is its own group, with a warning on the
``picksim.picking`` logger.  Planning resets every line's ``remaining``
to its ``qty``, so orders that an earlier run picked can be planned again.

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
handling plus stall waiting.  A traversal keeps the clock, walking,
handling and turns in locals that start from the booked totals, adds
each term to them in the order above and writes them back once, so
every sum has the bits it would have if each term went straight into
``ProcessTotals``.  Each walking leg is looked up once in a per-week
memo that prices it with ``travel_time`` on first use; ``handling_time``
prices every picking visit.
"""

from __future__ import annotations

import enum
from datetime import datetime
from typing import NamedTuple

from .config import SimConfig, WALK_CONSTANT
from .errors import InputDataError, _logger
from .events import Engine, Event, PartialPick, StartPickOrder, _new
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


class PickingMode(enum.Enum):
    AREA = "area"
    ZONING = "zoning"


class OrderLine(_Record):
    """One line of an order; ``remaining`` starts at ``qty``, is reset to it
    when a week is planned and counts down as the line is picked."""

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
    an order without lines raises ``InputDataError``.  Every line's
    ``remaining`` is reset to its ``qty``, so orders picked by an earlier
    run can be planned again."""
    groups: dict[str, list[Order]] = {}
    group_seq: list[str] = []
    for order in orders:
        if not order.lines:
            raise InputDataError(f"order {order.order_no} has no lines")
        key = order.truck_id
        if not key:
            key = f"#solo:{order.order_no}"
            _logger(__name__).warning("order %s has no truck id; treating it as its own group",
                                      order.order_no)
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
    lots = warehouse._lots
    storage = warehouse.storage
    zoning = mode is PickingMode.ZONING
    # (zone, seq_no, line index, slot) per line, area picking being zoning with
    # one zone for every line: the line index is unique, so sorting never
    # compares two slots
    keyed = []
    for idx, line in enumerate(order.lines):
        line.remaining = line.qty
        lot = lots.get(line.item)
        if lot:
            loc = storage[lot[0][2].location]
        else:
            if lot is None:
                warehouse.item(line.item)  # raises for an unknown code
            loc = policy.primary_location(line.item)
        keyed.append((loc.zone if zoning else "", loc.seq_no, idx, loc))
    keyed.sort()
    stops = []
    seg_of = []
    seg = -1
    zone = None
    for stop_zone, _, idx, loc in keyed:
        if stop_zone != zone:
            zone = stop_zone
            seg += 1
        stops.append(_new(RouteStop, (idx, loc)))
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
        self._legs = _Legs(warehouse, self.walk_eq)

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
        constant_s = walking.constant_s
        legs = self._legs
        entrance = self.entrance
        dropoff_id = self.dropoff.id
        start = self._at_stop
        if start is None:
            pos, cur_point, cur_seg = 0, entrance, -1
        else:
            pos, cur_point, cur_seg = start, route[start].location, seg_of[start]

        # the clock and the totals as running locals, each added to in the
        # order of the module docstring and written back once
        t = now
        walk = metrics.walk_s
        turns = 0
        # pick results of each picking visit ("call"), one per sublist picked from
        calls: list[list[tuple[int, int]]] = []
        call_seg = -1
        stall: int | None = None
        for p in range(pos, len(route)):
            seg = seg_of[p]
            line_index, loc = route[p]
            if constant:
                # sublists only increase along a route: a new one is entered here
                if seg != cur_seg:
                    t += constant_s
                    walk += constant_s
            elif p != start:
                if seg != cur_seg and cur_seg != -1:
                    n, leg = legs[cur_point.id, dropoff_id]
                    turns += n
                    t += leg
                    walk += leg
                    cur_point = entrance
                n, leg = legs[cur_point.id, loc.id]
                turns += n
                t += leg
                walk += leg
                cur_point = loc
            cur_seg = seg
            line = lines[line_index]
            want = line.remaining
            if want > on_hand[line.item]:
                stall = p
                break
            if seg != call_seg:
                call = []
                calls.append(call)
                call_seg = seg
            call.append(pick(line.item, want))
            line.remaining = 0
        else:
            if not constant:
                n, leg = legs[cur_point.id, dropoff_id]
                turns += n
                t += leg
                walk += leg
        metrics.walk_s = walk
        metrics.turns += turns

        handle_s = metrics.handle_s
        for call in calls:
            handle = handling_time(call, self.cfg)
            t += handle
            handle_s += handle
        metrics.handle_s = handle_s

        if stall is None:
            self.completions[i] = t
            self._active = None
            if i + 1 < len(self.plan):
                return (t, _new(StartPickOrder, (i + 1,)))
            return None
        self._at_stop = stall
        line_index, loc = route[stall]
        return (t, _new(PartialPick, (i, line_index, loc.id)))


class _Legs(dict):
    """``(from id, to id) -> (aisle turns, travel seconds)`` of the walking
    legs of one week; a leg is priced with ``travel_time`` on first use."""

    __slots__ = ("warehouse", "equipment")

    def __init__(self, warehouse: Warehouse, equipment: Equipment):
        super().__init__()
        self.warehouse = warehouse
        self.equipment = equipment

    def __missing__(self, key: tuple[LocationId, LocationId]) -> tuple[int, float]:
        a, b = self.warehouse.location(key[0]), self.warehouse.location(key[1])
        turns = aisle_turns(a, b)
        leg = self[key] = (turns, travel_time(a, b, self.equipment, turns))
        return leg


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
