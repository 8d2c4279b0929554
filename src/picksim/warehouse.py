"""Warehouse state: layout, item catalog, pallet inventory, travel arithmetic.

Physical structure is a set of storage slots addressed by a
``(row, layer, slot)`` triple, each with planar coordinates in
centimeters, a zone label, and a ``seq_no`` giving the slot's position
along the picking route (a total order over the layout).  Three anchor
points (entrance, consolidation/special area, elevator) are ordinary
locations with reserved ids on row -1 so travel to and from them uses
the same arithmetic as slot-to-slot travel.

Inventory is one pallet record per slot at most.  Picking always
consumes the oldest manufacturing date first (ties broken by route
position), and a record is removed the moment its quantity reaches
zero, which frees the slot.  A per-item on-hand counter moves with every
placement and pick, and attached watchers (the storage policies' slot
and stock indices) are told about every slot that is drained and about
every change of an item's on-hand count.  ``pick`` returns how many
pallets it touched and how many pieces it took loose, the two figures
the picker's handling time is charged on.

Each item's pallets sit in a min-heap of ``(mfg_date, seq_no, record)``,
its lot heap, so the FIFO lot is the head.  ``place`` pushes onto it.
The heap is exact, with no stale entries: a record leaves the warehouse
only when a pick drains it, a pick only ever takes from the head, so
the drained record is the head and is popped then and there.  Slot
``seq_no`` values are unique, so two keys never tie and records are
never compared.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable

from .errors import InputDataError, ParseError

LocationId = tuple[int, int, int]

ANCHOR_ROW = -1
ENTRANCE_ID: LocationId = (ANCHOR_ROW, 0, 0)
SPECIAL_AREA_ID: LocationId = (ANCHOR_ROW, 0, 1)
ELEVATOR_ID: LocationId = (ANCHOR_ROW, 0, 2)
ANCHOR_ZONE = "anchor"

HANDLIFT = "handlift"
STACKER = "stacker"

@dataclass(frozen=True)
class Location:
    """One addressable point of the layout (storage slot or anchor)."""

    id: LocationId
    x_cm: float
    y_cm: float
    z_cm: float
    zone: str
    seq_no: int

    @property
    def row(self) -> int:
        return self.id[0]

    @property
    def is_anchor(self) -> bool:
        return self.id[0] == ANCHOR_ROW


@dataclass(frozen=True)
class Item:
    """Catalog entry for one stock-keeping unit."""

    code: str
    home_zone: str
    qty_per_pallet: int

    def __post_init__(self) -> None:
        if self.qty_per_pallet < 1:
            raise InputDataError(f"item {self.code}: qty_per_pallet must be >= 1")


@dataclass
class PalletRecord:
    """One pallet of a single item on one slot: a row of the inventory file
    as loaded, or a pallet the warehouse holds."""

    location: LocationId
    item: str
    qty: int
    mfg_date: date


@dataclass(frozen=True)
class Equipment:
    """A class of handling equipment and its motion parameters.

    ``speed_cm_s`` is planar travel speed, ``lift_speed_cm_s`` vertical
    speed (zero means the equipment cannot lift), ``turn_time_s`` the
    fixed cost per aisle change.
    """

    kind: str
    speed_cm_s: float
    lift_speed_cm_s: float
    turn_time_s: float


@dataclass
class ProcessTotals:
    """Seconds of one weekly run, each booked where it is charged.

    The picker's walking, handling and stall waiting add up to the last
    order's completion time; the replenisher's put-away travel and
    handling run beside the picker's clock.  ``turns`` counts the aisle
    changes of both.
    """

    walk_s: float = 0.0
    handle_s: float = 0.0
    wait_s: float = 0.0
    put_travel_s: float = 0.0
    put_handle_s: float = 0.0
    turns: int = 0


def aisle_turns(a: Location, b: Location) -> int:
    """Number of aisle changes between two points: 0 within a row, else 1."""
    return 0 if a.row == b.row else 1


def travel_time(a: Location, b: Location, eq: Equipment, turns: int) -> float:
    """Rectilinear travel seconds between two points with the given equipment.

    Planar distance moves at ``speed_cm_s``, vertical distance at
    ``lift_speed_cm_s``, and each turn costs ``turn_time_s``.  Symmetric in
    its endpoints.  Vertical travel with non-lifting equipment is an error.
    """
    dx = abs(a.x_cm - b.x_cm)
    dy = abs(a.y_cm - b.y_cm)
    dz = abs(a.z_cm - b.z_cm)
    t = (dx + dy) / eq.speed_cm_s
    if dz:
        if eq.lift_speed_cm_s <= 0:
            raise InputDataError(
                f"{eq.kind} cannot lift but travel {a.id} -> {b.id} needs {dz} cm vertical"
            )
        t += dz / eq.lift_speed_cm_s
    return t + turns * eq.turn_time_s


def index_layout(locations: Iterable[Location]
                 ) -> tuple[dict[LocationId, Location], dict[LocationId, Location]]:
    """Storage slots and anchor points of a layout, each keyed by id.

    An anchor the layout lacks stands at the origin.  A repeated id is an
    error.
    """
    storage: dict[LocationId, Location] = {}
    anchors: dict[LocationId, Location] = {}
    for loc in locations:
        target = anchors if loc.is_anchor else storage
        if loc.id in target:
            raise InputDataError(f"duplicate location id {loc.id}")
        target[loc.id] = loc
    for anchor_id, seq_no in ((ENTRANCE_ID, -3), (SPECIAL_AREA_ID, -2), (ELEVATOR_ID, -1)):
        if anchor_id not in anchors:
            anchors[anchor_id] = Location(anchor_id, 0.0, 0.0, 0.0, ANCHOR_ZONE, seq_no)
    return storage, anchors


class Warehouse:
    """Layout plus live inventory, with optional continuous auditing.

    With ``audit=True`` every mutation keeps per-item counters so that
    ``verify_conservation`` can assert placed - picked == on-hand at any
    instant, and every pick asserts that consumed manufacturing dates
    never decrease per item.
    """

    def __init__(self, locations: Iterable[Location], items: Iterable[Item], audit: bool = False):
        self.storage, self.anchors = index_layout(locations)
        seqs = [loc.seq_no for loc in self.storage.values()]
        if len(set(seqs)) != len(seqs):
            raise InputDataError("seq_no values must be unique across storage slots")

        self.items: dict[str, Item] = {}
        for item in items:
            if item.code in self.items:
                raise InputDataError(f"duplicate item code {item.code}")
            self.items[item.code] = item

        self.records: dict[LocationId, PalletRecord] = {}
        # item code -> lot heap of (mfg_date, seq_no, record); see the module docstring
        self._lots: dict[str, list[tuple[date, int, PalletRecord]]] = {
            code: [] for code in self.items}
        self._on_hand: dict[str, int] = dict.fromkeys(self.items, 0)
        # objects with _slot_drained(loc_id), told after every pick() that
        # empties a slot, and _stock_changed(item_code, on_hand), told after
        # every place() and after every pallet a pick() takes from
        self._watchers: list = []

        self.audit = audit
        self._placed: dict[str, int] = {}
        self._picked: dict[str, int] = {}
        self._last_picked_date: dict[str, date] = {}

    # -- lookups ---------------------------------------------------------

    def location(self, loc_id: LocationId) -> Location:
        loc = self.storage.get(loc_id) or self.anchors.get(loc_id)
        if loc is None:
            raise InputDataError(f"unknown location id {loc_id}")
        return loc

    def item(self, code: str) -> Item:
        try:
            return self.items[code]
        except KeyError:
            raise InputDataError(f"unknown item code {code}") from None

    def is_vacant(self, loc_id: LocationId) -> bool:
        if loc_id not in self.storage:
            raise InputDataError(f"unknown storage slot {loc_id}")
        return loc_id not in self.records

    def total_on_hand(self, item_code: str) -> int:
        on_hand = self._on_hand.get(item_code)
        if on_hand is None:
            self.item(item_code)  # raises for an unknown code
        return on_hand

    # -- mutations -------------------------------------------------------

    def place(self, loc_id: LocationId, item_code: str, qty: int, mfg_date: date) -> None:
        """Create a pallet record on a vacant slot.  Never overwrites."""
        item = self.item(item_code)
        if loc_id not in self.storage:
            raise InputDataError(f"cannot place pallet on unknown slot {loc_id}")
        if loc_id in self.records:
            raise InputDataError(f"slot {loc_id} already holds a pallet")
        if qty < 1 or qty > item.qty_per_pallet:
            raise InputDataError(
                f"pallet of {item_code} must hold 1..{item.qty_per_pallet} pieces, got {qty}"
            )
        record = PalletRecord(loc_id, item_code, qty, mfg_date)
        self.records[loc_id] = record
        heapq.heappush(self._lots[item_code], (mfg_date, self.storage[loc_id].seq_no, record))
        self._on_hand[item_code] += qty
        on_hand = self._on_hand[item_code]
        for watcher in self._watchers:
            watcher._stock_changed(item_code, on_hand)
        if self.audit:
            self._placed[item_code] = self._placed.get(item_code, 0) + qty

    def fifo_lot(self, item_code: str) -> PalletRecord | None:
        """Oldest pallet of the item (ties by route position); None if out of stock."""
        lots = self._lots.get(item_code)
        if lots is None:
            self.item(item_code)  # raises for an unknown code
        return lots[0][2] if lots else None

    def pick(self, item_code: str, qty: int) -> tuple[int, int]:
        """Consume ``qty`` pieces oldest-first, splitting across pallets.

        Drained pallets are removed, freeing their slots.  Returns
        ``(pallets_touched, loose_pieces)``: the loose pieces are those
        taken from a pallet that is left standing, which only the last
        pallet touched can be.  Callers must ensure qty <= total_on_hand
        beforehand.
        """
        if qty < 1:
            raise InputDataError(f"pick quantity must be >= 1, got {qty}")
        lots = self._lots.get(item_code)
        if lots is None:
            self.item(item_code)  # raises for an unknown code
        touched = loose = 0
        remaining = qty
        while remaining > 0:
            if not lots:
                raise InputDataError(
                    f"pick of {qty} x {item_code} exceeds stock ({qty - remaining} taken)"
                )
            record = lots[0][2]
            taken = min(remaining, record.qty)
            record.qty -= taken
            self._on_hand[item_code] -= taken
            on_hand = self._on_hand[item_code]
            drained = record.qty == 0
            if drained:
                heapq.heappop(lots)
                del self.records[record.location]
            else:
                loose = taken
            for watcher in self._watchers:
                if drained:
                    watcher._slot_drained(record.location)
                watcher._stock_changed(item_code, on_hand)
            touched += 1
            remaining -= taken
            if self.audit:
                self._picked[item_code] = self._picked.get(item_code, 0) + taken
                last = self._last_picked_date.get(item_code)
                assert last is None or record.mfg_date >= last, (
                    f"FIFO violation for {item_code}: consumed {record.mfg_date} after {last}"
                )
                self._last_picked_date[item_code] = record.mfg_date
        return touched, loose

    def verify_conservation(self) -> None:
        """Assert placed - picked == on-hand for every item.

        On-hand is summed from the pallet records, not read from the
        running counter, so the check stays independent of the counter;
        the counter is then checked against that sum as well.
        """
        held = dict.fromkeys(self.items, 0)
        for record in self.records.values():
            held[record.item] += record.qty
        for code in self.items:
            expected = self._placed.get(code, 0) - self._picked.get(code, 0)
            actual = held[code]
            assert expected == actual, (
                f"conservation broken for {code}: expected {expected}, on hand {actual}"
            )
            assert self._on_hand[code] == actual, (
                f"on-hand counter drift for {code}: counter {self._on_hand[code]}, "
                f"pallet records {actual}"
            )


# -- CSV interfaces ------------------------------------------------------

LAYOUT_HEADER = ["row", "layer", "slot", "x_cm", "y_cm", "z_cm", "zone", "seq_no"]
ITEMS_HEADER = ["item_code", "home_zone", "qty_per_pallet"]
INVENTORY_HEADER = ["row", "layer", "slot", "item_code", "qty", "mfg_date"]


def _read_csv(path: str, header: list[str], parse: Callable[[list[str]], object]) -> list:
    """``parse(cells)`` of every data row of a CSV file, in file order.

    The first row must be ``header``; blank lines are skipped and every
    other row must have one cell per header column.  A file that cannot
    be opened or decoded, a malformed row and a ``ValueError`` from
    ``parse`` raise a one-line ``ParseError`` naming ``path:line``; an
    ``InputDataError`` from ``parse`` gets the same prefix.  Rows are
    read and parsed one at a time.
    """
    parsed = []
    line = 1
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, strict=True)
            try:
                first = next(reader, None)
                if first != header:
                    raise ParseError(
                        f"{path}: expected header {','.join(header)}, got "
                        f"{','.join(first or ['<empty>'])}"
                    )
                line = reader.line_num + 1
                for cells in reader:
                    if cells:
                        if len(cells) != len(header):
                            raise ParseError(
                                f"{path}:{line}: expected {len(header)} cells, got {len(cells)}"
                            )
                        parsed.append(parse(cells))
                    line = reader.line_num + 1  # where the next row starts
            except UnicodeDecodeError as exc:
                # text is decoded a block ahead of the reader: find the line in the bytes
                fh.buffer.seek(0)
                for line, raw in enumerate(fh.buffer, start=1):
                    try:
                        raw.decode("utf-8")
                    except UnicodeDecodeError:
                        break
                raise ParseError(f"{path}:{line}: not UTF-8 text") from exc
            except (ValueError, csv.Error) as exc:
                raise ParseError(f"{path}:{line}: {exc}") from exc
            except InputDataError as exc:
                raise InputDataError(f"{path}:{line}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parsed


def _finite(cell: str) -> float:
    """A numeric cell that must be a finite number; ``_read_csv`` reports its
    ``ValueError`` at ``path:line``."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


def _write_csv(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` and then ``rows`` as UTF-8 CSV with ``\\n`` line ends,
    making the file's missing parent directories first.

    A file that cannot be written raises a one-line ``ParseError``
    naming ``path``.
    """
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def load_layout(path: str) -> list[Location]:
    def location(cells: list[str]) -> Location:
        row, layer, slot, x_cm, y_cm, z_cm, zone, seq_no = cells
        loc = Location((int(row), int(layer), int(slot)), _finite(x_cm), _finite(y_cm),
                       _finite(z_cm), zone, int(seq_no))
        if loc.is_anchor and loc.id not in (ENTRANCE_ID, SPECIAL_AREA_ID, ELEVATOR_ID):
            raise InputDataError(f"row {ANCHOR_ROW} holds only the anchors {ENTRANCE_ID}, "
                                 f"{SPECIAL_AREA_ID} and {ELEVATOR_ID}, got {loc.id}")
        return loc

    return _read_csv(path, LAYOUT_HEADER, location)


def save_layout(locations: Iterable[Location], path: str) -> None:
    _write_csv(path, LAYOUT_HEADER, (
        [*loc.id, loc.x_cm, loc.y_cm, loc.z_cm, loc.zone, loc.seq_no] for loc in locations
    ))


def load_items(path: str) -> list[Item]:
    def item(cells: list[str]) -> Item:
        code, home_zone, qty_per_pallet = cells
        return Item(code, home_zone, int(qty_per_pallet))

    return _read_csv(path, ITEMS_HEADER, item)


def save_items(items: Iterable[Item], path: str) -> None:
    _write_csv(path, ITEMS_HEADER, (
        [item.code, item.home_zone, item.qty_per_pallet] for item in items
    ))


def load_inventory(path: str) -> list[PalletRecord]:
    def pallet(cells: list[str]) -> PalletRecord:
        row, layer, slot, item_code, qty, mfg_date = cells
        record = PalletRecord((int(row), int(layer), int(slot)), item_code, int(qty),
                              date.fromisoformat(mfg_date))
        if record.qty < 1:
            raise InputDataError(f"initial pallet of {item_code}: qty must be >= 1, "
                                 f"got {record.qty}")
        return record

    return _read_csv(path, INVENTORY_HEADER, pallet)


def save_inventory(records: Iterable[PalletRecord], path: str) -> None:
    _write_csv(path, INVENTORY_HEADER, (
        [*r.location, r.item, r.qty, r.mfg_date.isoformat()] for r in records
    ))
