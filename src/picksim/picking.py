"""Order picking: plan construction, handling arithmetic, pick/resume handlers.

Plan construction groups a horizon's orders by delivery truck (groups in
first-appearance order) and reverses each truck's orders so the last
delivery stop is picked first (trucks unload back to front).  Within an
order, lines are visited in ascending route position of the slot each
line's item drew from when the week was planned (the oldest pallet's
slot, or the item's designated slot while it was out of stock).
``prepare_orders`` routes every order of the week before its first
event, from the stock standing then, and picks still take the oldest
pallet wherever it stands: a pallet put away during the week never
changes where the picker walks, so a storage policy reaches walking
only through initial placement.  Zone picking additionally groups a
route into per-zone sublists; sublists are worked one after another by
the zone staff, and consolidating them afterwards costs nothing.  An
order without a truck id is its own group, with a warning on the
``picksim.picking`` logger.

The plan is read-only once built: planning prices the walking into
every route stop and out of the last one, and nothing writes to the plan
or the orders after that.  What the picker still owes lives in its
session: every line before its position on the route is picked, every
line after it is owed in full, and the session keeps the pieces still
owed of the short line it waits at.  Each sublist is walked from the
entrance to the drop-off point, and one leg function per week,
``leg(from id, to id) -> (turns, seconds)``, prices every leg of every
route: ``travel_time`` of the two locations on the stacker, the one
equipment, cached so each leg is priced once per week.

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
import functools
from datetime import datetime
from typing import Callable, NamedTuple

from .config import SimConfig
from .errors import InfeasibleRunError, InputDataError, _cut, _logger
from .events import Engine, Event, PartialPick, StartPickOrder
from .storage import StoragePolicy
from .warehouse import (
    ENTRANCE_ID,
    SPECIAL_AREA_ID,
    Item,
    Location,
    LocationId,
    ProcessTotals,
    Warehouse,
    _int,
    _isoformat,
    _new,
    _reading,
    _write_csv,
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
    """One order with its priced route and the leg from the route's last
    stop to the drop-off point (``exit_s`` seconds, ``exit_turns`` turns);
    read-only once planned."""

    order: Order
    route: list[RouteStop]
    exit_s: float
    exit_turns: int


PickPlan = list[PlanEntry]
PickerEvent = tuple[float, StartPickOrder | PartialPick]


def prepare_orders(orders: list[Order], mode: PickingMode, warehouse: Warehouse,
                   policy: StoragePolicy, cfg: SimConfig) -> PickPlan:
    """Build the pick plan for a horizon's orders against current stock,
    every leg priced by ``travel_time`` on the stacker, cached for the
    week; an order without lines, and a line of fewer than 1 piece, raise
    ``InputDataError``.  The orders are not changed."""
    groups: dict[str, list[Order]] = {}  # in first-appearance order
    for order in orders:
        if not order.lines:
            raise InputDataError(f"order {_cut(order.order_no)} has no lines")
        key = order.truck_id
        if not key:
            key = f"#solo:{order.order_no}"
            _logger(__name__).warning("order %s has no truck id; treating it as its own group",
                                      _cut(order.order_no))
        groups.setdefault(key, []).append(order)

    location, equipment = warehouse.location, cfg.stacker()

    @functools.cache
    def leg(a: LocationId, b: LocationId) -> tuple[int, float]:
        return travel_time(location(a), location(b), equipment)

    return [_plan_entry(order, mode, warehouse, policy, leg)
            for group in groups.values() for order in reversed(group)]


def _plan_entry(order: Order, mode: PickingMode, warehouse: Warehouse, policy: StoragePolicy,
                leg: Callable[[LocationId, LocationId], tuple[int, float]]) -> PlanEntry:
    """Route ``order`` and price its walking with the week's leg function:
    ``leg(from id, to id)`` gives the turns and seconds of the drop-off leg
    that closes each sublist but the last, of the leg into each stop, and
    of the exit from the last stop to the drop-off point."""
    lots = warehouse._lots
    storage = warehouse.storage
    zoning = mode is PickingMode.ZONING
    # (zone, seq_no, line index, slot) per line, area picking being zoning with
    # one zone for every line: the line index is unique, so sorting never
    # compares two slots
    keyed = []
    for idx, (item, qty) in enumerate(order.lines):
        if qty < 1:
            raise InputDataError(f"order line of {_cut(item)}: qty must be >= 1")
        lot = lots.get(item)
        if lot:
            loc = storage[lot[0][2].location]
        else:
            if lot is None:
                warehouse.item(item)  # raises for an unknown code
            loc = policy.primary_location(item)
        keyed.append((loc.zone if zoning else "", loc.seq_no, idx, loc))
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
            if sublist:
                drop_turns, drop_s = leg(at, SPECIAL_AREA_ID)
            at = ENTRANCE_ID
        turns, walk_s = leg(at, loc.id)
        stops.append(_new(RouteStop, (idx, loc, sublist, drop_s, walk_s, drop_turns + turns)))
        at = loc.id
    exit_turns, exit_s = leg(at, SPECIAL_AREA_ID)
    return _new(PlanEntry, (order, stops, exit_s, exit_turns))


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

    Owns the plan, the per-order completion times, the position of the
    (single) picker inside the active order's route, and the pieces it
    still owes of the short line it waits at.
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
        # route position of the short line the picker waits at, if any, and
        # the pieces of that line still to pick
        self._at_stop: int | None = None
        self._owed = 0

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
        want = self._owed
        assert want > 0, "resume event for a line that is already picked"
        avail = self.warehouse.total_on_hand(item)
        if avail >= want:
            return self._advance(event.time)
        if avail > 0:
            # taken while waiting: the clock charges no handling for it
            self.warehouse.pick(item, avail)
            self._owed = want - avail
        if self.policy.nearest_vacant(item) is None:
            raise InfeasibleRunError(self._stuck(entry, stop, item, event.time))
        t_rp = sim.next_visit.time
        self.metrics.wait_s += t_rp - event.time
        return (t_rp, kind)

    def _stuck(self, entry: PlanEntry, stop: RouteStop, item: str, now: float) -> str:
        """Why the week can never finish: the picker waits at ``stop`` of
        ``entry`` for ``item``, which has no stock left and no vacant
        candidate slot.  Only the waiting picker drains slots, so no
        restocking visit can ever place it."""
        slots = self.policy.candidate_slots(item)
        if len(slots) == len(self.warehouse.storage):
            why = "the warehouse is full"
        else:
            held = sorted({self.warehouse.records[loc.id].item for loc in slots})
            why = f"its candidate slots hold pallets of {', '.join(map(_cut, held))}"
        item = _cut(item)
        return (f"cannot finish: at t={now} s the picker is waiting for order "
                f"{_cut(entry.order.order_no)}, line index {stop.line_index}, item {item}, "
                f"at slot {_cut(str(stop.location.id))}, and no visit can restock {item}: {why}")

    # -- core traversal ----------------------------------------------------

    def _advance(self, now: float) -> PickerEvent | None:
        """Work the active order forward from the picker's position in one
        pass over its route.

        At each stop but the one the picker resumes from, the planned walking
        there goes onto the clock and the totals, and the line's ordered
        pieces are owed; at the resume stop the session's owed pieces are.
        Then the line is short, and the traversal stops there and keeps what
        it owes, or it is picked in full.  Per-sublist
        handling is added after the walk.  Returns the next order's start
        event (order done), ``None`` (last order done) or the resume event at
        the short line's slot.
        """
        i = self._active
        assert i is not None
        entry = self.plan[i]
        route = entry.route
        lines = entry.order.lines
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
            item, want = lines[line_index]
            if p != start:
                t += drop_s
                walk += drop_s
                t += walk_s
                walk += walk_s
                turns += n
            else:
                want = self._owed
            if want > on_hand[item]:
                stall = p
                self._owed = want
                break
            if seg != visit_seg:
                if pallets:
                    handles.append(handling_time(pallets, masters, cfg))
                    pallets = masters = 0
                visit_seg = seg
            touched, loose = pick(item, want)
            pallets += touched
            masters += -(-loose // per_master)
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


# -- orders file ---------------------------------------------------------

ORDERS_HEADER = ["order_datetime", "order_no", "truck_id", "item_code", "qty"]


def load_orders(path: str, items: dict[str, Item]) -> list[Order]:
    """The orders of an orders file in first-appearance order, each with
    its lines in file order; a line names its item by the catalog's own
    code string.  A bad row raises naming ``path:line``."""
    # order_no -> the order, the order_datetime text of its first line (a
    # later line with the same text is not parsed again) and its lines
    orders: dict[str, tuple[Order, str, list[OrderLine]]] = {}
    # whether each parsed order_datetime has a UTC offset: naive and offset
    # times cannot be compared, so a file gives every one an offset or none
    offsets: set[bool] = set()
    find, find_item, parse_time = orders.get, items.get, datetime.fromisoformat
    with _reading(path, ORDERS_HEADER) as rows:
        for order_datetime, order_no, truck_id, item_code, qty in rows:
            entry = find(order_no)
            if entry is None or order_datetime != entry[1]:
                when = _isoformat(parse_time, order_datetime)
                offsets.add(when.tzinfo is not None)
                if len(offsets) > 1:
                    raise InputDataError(f"order_datetime {order_datetime}: a file's order "
                                         "times must all have a UTC offset, or none")
            try:
                qty = int(qty)
            except ValueError:
                qty = _int(qty)  # raises, naming a number of too many digits as such
            if qty < 1:  # as planning, at path:line
                raise InputDataError(f"order line of {_cut(item_code)}: qty must be >= 1")
            item = find_item(item_code)
            if item is None:
                raise InputDataError(f"unknown item {_cut(item_code)}")
            if entry is None:
                order = _new(Order, (order_no, when, truck_id, []))
                entry = orders[order_no] = (order, order_datetime, order.lines)
            elif truck_id != entry[0].truck_id or order_datetime != entry[1] and (
                    when != entry[0].order_datetime):
                # the same instant written differently is the same date
                raise InputDataError(f"order {_cut(order_no)}: date or truck differs from its "
                                     "first line")
            entry[2].append(_new(OrderLine, (item.code, qty)))
    return [order for order, _, _ in orders.values()]


def save_orders(orders: list[Order], path: str) -> None:
    _write_csv(path, ORDERS_HEADER, (
        [order.order_datetime.isoformat(sep=" "), order.order_no, order.truck_id,
         line.item, line.qty]
        for order in orders for line in order.lines
    ))
