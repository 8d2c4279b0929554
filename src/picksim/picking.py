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
``picksim.picking`` logger.

The plan carries the week: planning prices the walking into every route
stop and out of the last one, and holds what is left to pick of every
line, so orders stay read-only inputs.  Distance walking walks each
sublist from the entrance to the drop-off point and prices each leg once
per week with ``travel_time``; constant walking charges ``constant_s``
at the stop that opens a sublist.

Execution is strictly sequential: one order is in flight at a time and
the next order starts the moment the previous one is done.  An order
with enough stock for every line is picked in one visit; its completion
is start + walking + handling.  Otherwise the picker works the route up
to the first short line, a resume event is scheduled for the estimated
arrival there (walking so far plus handling of the lines already done),
and the picker waits at that slot: whatever is on hand is taken, and
the rest arrives via replenishment, re-checked immediately after each
restocking visit.  If the waited item then has no vacant candidate slot,
the week can never finish: only the waiting picker drains slots, so no
visit can restock the item.  The resume raises ``InfeasibleRunError``
naming the line and the items whose pallets fill those slots.

Each traversal is one pass over the route from the picker's position:
at every stop but the one it resumes from it books the planned walking
there, then either finds the line short and stops, or picks it in full.
A line is short when it needs more than is on hand at that moment.
Every earlier line of the traversal was picked in full, so this is the
same as asking whether the lines of its item up to and including it
need more than the stock the traversal started with.

Time accounting convention (kept identical in the brute-force test
oracle, so do not reorder): every milestone timestamp is built as
``now``, plus each walking leg in route order (at a stop, the drop-off
leg before the leg into it), plus each per-sublist handling total in
route order.  Handling is charged for the quantity a traversal takes,
once per sublist visit.  The pieces grabbed at a stall are charged
nothing: the resume visit charges handling for the rest of the line
only.  Every term is booked in ``ProcessTotals`` where it is added to
the clock, so per week the last completion equals walking plus handling
plus stall waiting.  A traversal keeps the clock, walking, handling and
turns in locals that start from the booked totals, adds each term to
them in the order above and writes them back once, so every sum has the
bits it would have if each term went straight into ``ProcessTotals``.
A leg of ``0.0`` leaves a sum unchanged.  Per sublist visit the
traversal counts the pallets its picks touched and the master cartons of
their loose pieces (each line's rounded up on its own), and
``handling_time`` prices every picking visit from those two counts.
"""

from __future__ import annotations

import enum
from datetime import datetime
from typing import NamedTuple

from .config import SimConfig, WALK_CONSTANT
from .errors import InfeasibleRunError, InputDataError, _logger
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
    _new,
    _read_csv,
    _write_csv,
    aisle_turns,
    travel_time,
)


class PickingMode(enum.Enum):
    AREA = "area"
    ZONING = "zoning"


class OrderLine(NamedTuple):
    """``qty`` pieces of ``item``; at least 1 (``load_orders`` and planning
    refuse less)."""

    item: str
    qty: int


class Order(NamedTuple):
    order_no: str
    order_datetime: datetime
    truck_id: str
    lines: list[OrderLine]


class RouteStop(NamedTuple):
    """One stop of a route and the walking that reaches it from the stop
    before: ``drop_s`` to the drop-off point when the stop opens a new
    sublist (else ``0.0``), then ``walk_s`` into the stop, with ``turns``
    aisle turns on the two legs together."""

    line_index: int
    location: Location
    sublist: int
    drop_s: float
    walk_s: float
    turns: int


class PlanEntry(NamedTuple):
    """One order with its priced route, the leg from the route's last stop
    to the drop-off point (``exit_s`` seconds, ``exit_turns`` turns), and
    ``remaining[k]``, the pieces of line ``k`` still to pick."""

    order: Order
    route: list[RouteStop]
    exit_s: float
    exit_turns: int
    remaining: list[int]


PickPlan = list[PlanEntry]
PickerEvent = tuple[float, StartPickOrder | PartialPick]


def prepare_orders(orders: list[Order], mode: PickingMode, warehouse: Warehouse,
                   policy: StoragePolicy, cfg: SimConfig) -> PickPlan:
    """Build the pick plan for a horizon's orders against current stock,
    its walking priced under ``cfg.walking``; an order without lines, and a
    line of fewer than 1 piece, raise ``InputDataError``.  The orders are
    not changed."""
    groups: dict[str, list[Order]] = {}  # in first-appearance order
    for order in orders:
        if not order.lines:
            raise InputDataError(f"order {order.order_no} has no lines")
        key = order.truck_id
        if not key:
            key = f"#solo:{order.order_no}"
            _logger(__name__).warning("order %s has no truck id; treating it as its own group",
                                      order.order_no)
        groups.setdefault(key, []).append(order)

    walking = cfg.walking
    legs = None if walking.mode == WALK_CONSTANT else _Legs(warehouse, cfg.walking_equipment())
    plan: PickPlan = []
    for group in groups.values():
        for order in reversed(group):
            plan.append(_plan_entry(order, mode, warehouse, policy, legs, walking.constant_s))
    return plan


def _plan_entry(order: Order, mode: PickingMode, warehouse: Warehouse, policy: StoragePolicy,
                legs: _Legs | None, constant_s: float) -> PlanEntry:
    """Route ``order`` and price its walking: distance walking looks every
    leg up in ``legs``; constant walking (``legs`` is ``None``) costs
    ``constant_s`` into the stop that opens a sublist and nothing else."""
    lots = warehouse._lots
    storage = warehouse.storage
    zoning = mode is PickingMode.ZONING
    # (zone, seq_no, line index, slot) per line, area picking being zoning with
    # one zone for every line: the line index is unique, so sorting never
    # compares two slots
    keyed = []
    remaining = []
    for idx, (item, qty) in enumerate(order.lines):
        if qty < 1:
            raise InputDataError(f"order line of {item}: qty must be >= 1")
        lot = lots.get(item)
        if lot:
            loc = storage[lot[0][2].location]
        else:
            if lot is None:
                warehouse.item(item)  # raises for an unknown code
            loc = policy.primary_location(item)
        keyed.append((loc.zone if zoning else "", loc.seq_no, idx, loc))
        remaining.append(qty)
    keyed.sort()
    stops = []
    sublist = -1
    zone = None
    at = ENTRANCE_ID
    for stop_zone, _, idx, loc in keyed:
        drop_turns, drop_s = 0, 0.0
        if stop_zone != zone:
            zone = stop_zone
            sublist += 1
            if sublist and legs is not None:
                drop_turns, drop_s = legs[at, SPECIAL_AREA_ID]
            at = ENTRANCE_ID
        if legs is None:
            turns, walk_s = 0, constant_s if at == ENTRANCE_ID else 0.0
        else:
            turns, walk_s = legs[at, loc.id]
        stops.append(_new(RouteStop, (idx, loc, sublist, drop_s, walk_s, drop_turns + turns)))
        at = loc.id
    exit_turns, exit_s = (0, 0.0) if legs is None else legs[at, SPECIAL_AREA_ID]
    return _new(PlanEntry, (order, stops, exit_s, exit_turns, remaining))


def handling_time(pallets: int, masters: int, cfg: SimConfig) -> float:
    """Handling seconds for one picking visit that touched ``pallets``
    pallets and took ``masters`` master cartons of loose pieces, each
    line's loose pieces (those not taken as a whole pallet) rounded up to
    whole cartons of ``cfg.pieces_per_master``.  A visit that touched no
    pallet costs nothing, any other one base time plus the per-pallet and
    per-carton terms.
    """
    if not pallets:
        return 0.0
    return cfg.BTpu + cfg.PPpu * pallets + cfg.PMpu * masters


class PickingSession:
    """Mutable state of one weekly run's picking side.

    Owns the plan, the per-order completion times, and the position of
    the (single) picker inside the active order's route.
    """

    def __init__(self, warehouse: Warehouse, policy: StoragePolicy, cfg: SimConfig,
                 plan: PickPlan, metrics: ProcessTotals):
        self.warehouse = warehouse
        self.policy = policy
        self.cfg = cfg
        self.plan = plan
        self.metrics = metrics
        self.completions: list[float | None] = [None] * len(plan)
        self._active: int | None = None
        # route position of the short line the picker waits at, if any
        self._at_stop: int | None = None

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
        item = entry.order.lines[kind.line].item
        want = entry.remaining[kind.line]
        assert want > 0, "resume event for a line that is already picked"
        avail = self.warehouse.total_on_hand(item)
        if avail >= want:
            return self._advance(event.time)
        if avail > 0:
            # taken while waiting: the clock charges no handling for it
            self.warehouse.pick(item, avail)
            entry.remaining[kind.line] = want - avail
        if self.policy.nearest_vacant(item) is None:
            raise InfeasibleRunError(self._stuck(item, event.time))
        t_rp = sim.next_visit.time
        self.metrics.wait_s += t_rp - event.time
        return (t_rp, kind)

    def _waiting_for(self) -> str | None:
        """The order, line index, item and slot of the short line the picker
        waits at, as text, or None when no order is in flight."""
        if self._active is None:
            return None
        entry = self.plan[self._active]
        stop = entry.route[self._at_stop]
        return (f"the picker is waiting for order {entry.order.order_no}, line index "
                f"{stop.line_index}, item {entry.order.lines[stop.line_index].item}, "
                f"at slot {stop.location.id}")

    def _stuck(self, item: str, now: float) -> str:
        """Why the week can never finish: the picker waits for ``item``, which
        has no stock left and no vacant candidate slot.  Only the waiting
        picker drains slots, so no restocking visit can ever place it."""
        slots = self.policy.candidate_slots(item)
        if len(slots) == len(self.warehouse.storage):
            why = "the warehouse is full"
        else:
            held = sorted({self.warehouse.records[loc.id].item for loc in slots})
            why = f"its candidate slots hold pallets of {', '.join(held)}"
        return (f"cannot finish: at t={now} s {self._waiting_for()}, and no visit can "
                f"restock {item}: {why}")

    # -- core traversal ----------------------------------------------------

    def _advance(self, now: float) -> PickerEvent | None:
        """Work the active order forward from the picker's position in one
        pass over its route.

        At each stop but the one the picker resumes from, the planned walking
        there goes onto the clock and the totals; then the line is short, and
        the traversal stops there, or it is picked in full.  Per-sublist
        handling is added after the walk.  Returns the next order's start
        event (order done), ``None`` (last order done) or the resume event at
        the short line's slot.
        """
        i = self._active
        assert i is not None
        entry = self.plan[i]
        route = entry.route
        lines = entry.order.lines
        remaining = entry.remaining
        # every plan line's item is in the catalog: prepare_orders looked up its lot
        on_hand = self.warehouse._on_hand
        pick = self.warehouse.pick
        metrics = self.metrics
        start = self._at_stop

        # the clock and the totals as running locals, each added to in the
        # order of the module docstring and written back once
        t = now
        walk = metrics.walk_s
        turns = 0
        cfg = self.cfg
        per_master = cfg.pieces_per_master
        # the handling of each picking visit, one per sublist picked from, and
        # the pallets and master cartons of the visit in progress
        handles: list[float] = []
        pallets = masters = 0
        visit_seg = -1
        stall: int | None = None
        for p in range(start or 0, len(route)):
            line_index, _, seg, drop_s, walk_s, n = route[p]
            if p != start:
                t += drop_s
                walk += drop_s
                t += walk_s
                walk += walk_s
                turns += n
            want = remaining[line_index]
            item = lines[line_index].item
            if want > on_hand[item]:
                stall = p
                break
            if seg != visit_seg:
                if pallets:
                    handles.append(handling_time(pallets, masters, cfg))
                    pallets = masters = 0
                visit_seg = seg
            touched, loose = pick(item, want)
            pallets += touched
            masters += -(-loose // per_master)
            remaining[line_index] = 0
        else:
            t += entry.exit_s
            walk += entry.exit_s
            turns += entry.exit_turns
        if pallets:
            handles.append(handling_time(pallets, masters, cfg))
        metrics.walk_s = walk
        metrics.turns += turns

        handle_s = metrics.handle_s
        for handle in handles:
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
        stop = route[stall]
        return (t, _new(PartialPick, (i, stop.line_index, stop.location.id)))


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
    # whether each parsed order_datetime has a UTC offset: naive and offset
    # times cannot be compared, so a file gives every one an offset or none
    offsets: set[bool] = set()
    find = orders.get
    parse_time = datetime.fromisoformat

    def add_line(cells: list[str]) -> None:
        order_datetime, order_no, truck_id, item_code, qty = cells
        order = find(order_no)
        same_text = order is not None and order_datetime == first_text[order_no]
        if not same_text:
            when = parse_time(order_datetime)
            offsets.add(when.tzinfo is not None)
            if len(offsets) > 1:
                raise InputDataError(f"order_datetime {order_datetime}: a file's order times "
                                     "must all have a UTC offset, or none")
        qty = int(qty)
        if qty < 1:  # as planning, at path:line
            raise InputDataError(f"order line of {item_code}: qty must be >= 1")
        if item_code not in items:
            raise InputDataError(f"unknown item {item_code}")
        if order is None:
            order = orders[order_no] = _new(Order, (order_no, when, truck_id, []))
            first_text[order_no] = order_datetime
        elif truck_id != order.truck_id or not same_text and when != order.order_datetime:
            # the same instant written differently is the same date
            raise InputDataError(f"order {order_no}: date or truck differs from its first line")
        order.lines.append(_new(OrderLine, (item_code, qty)))

    _read_csv(path, ORDERS_HEADER, add_line)
    return list(orders.values())


def save_orders(orders: list[Order], path: str) -> None:
    _write_csv(path, ORDERS_HEADER, (
        [order.order_datetime.isoformat(sep=" "), order.order_no, order.truck_id,
         line.item, line.qty]
        for order in orders for line in order.lines
    ))
