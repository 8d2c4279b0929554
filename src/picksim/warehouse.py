"""Warehouse state: layout, item catalog, pallet inventory, travel arithmetic.

Physical structure is a set of storage slots addressed by a
``(row, layer, slot)`` triple, each with planar coordinates in
centimeters, a zone label, and a ``seq_no`` giving the slot's position
along the picking route (a total order over the layout).  Three anchor
points (entrance, consolidation/special area, elevator) are ordinary
locations with reserved ids on row -1 so travel to and from them uses
the same arithmetic as slot-to-slot travel.  A run reads and checks
its layout once, into one ``Layout`` index (slots and anchors by id,
slots by zone) that ``index_layout`` builds, from a list or, for
``load_layout``, from a file's rows, and that each week's warehouse, the
slot map, the storage policies and the run's checks all read.

Inventory is one pallet record per slot at most.  Picking always
consumes the oldest manufacturing date first (ties broken by route
position), and a record is removed the moment its quantity reaches
zero, which frees the slot.  A per-item on-hand counter moves with every
placement and pick.  ``pick`` returns how many pallets it touched and
how many pieces it took loose, the two figures the picker's handling
time is charged on.  One append-only change log, ``log``, lets readers
keep indices over the inventory, each from its own read position, as
the storage policies and the conservation audit do: it gets a
``(record, pieces, left)`` entry per pallet a placement (``+qty``) or a
pick (``-taken``) touches, ``left`` being the pieces on the pallet after
that change.  Only the pick that drains a pallet logs ``left == 0``, so
each pallet has one drain entry, the one that freed its slot, and
readers never consult a record's live ``qty``.  The warehouse calls
nobody.

Each item's pallets sit in a min-heap of ``(mfg_date, seq_no, record)``,
its lot heap, so the FIFO lot is the head.  ``place`` pushes onto it.
The heap is exact, with no stale entries: a record leaves the warehouse
only when a pick drains it, a pick only ever takes from the head, so
the drained record is the head and is popped then and there.  Slot
``seq_no`` values are unique, so two keys never tie and records are
never compared.

Every CSV loader reads through one primitive, ``_reading``: it opens
the file, checks the header and hands the loader the data rows, blank
lines skipped, which the loader iterates in its own loop, unpacking each
row into one name per column.  Nothing is counted per row: when a row
fails, ``_failed_row`` reads the file again to find the line that row
starts on, and whether it has the wrong number of cells, for the one-line
``path:line`` error.
"""

from __future__ import annotations

import csv
import heapq
import math
import sys
from contextlib import contextmanager, suppress
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .errors import InputDataError, ParseError

LocationId = tuple[int, int, int]

ANCHOR_ROW = -1
ENTRANCE_ID: LocationId = (ANCHOR_ROW, 0, 0)
SPECIAL_AREA_ID: LocationId = (ANCHOR_ROW, 0, 1)
ELEVATOR_ID: LocationId = (ANCHOR_ROW, 0, 2)
ANCHOR_IDS = (ENTRANCE_ID, SPECIAL_AREA_ID, ELEVATOR_ID)  # in route order
ANCHOR_ZONE = "anchor"

STACKER = "stacker"

# builds a NamedTuple from a tuple of its fields without its Python-level __new__
_new = tuple.__new__


class _Record:
    """Base of the records whose fields a run changes, ``PalletRecord`` and
    ``ProcessTotals``: mutable ``__slots__`` classes, whose fields read
    faster than a dict-backed instance's.  A record whose fields no run
    reassigns is a ``NamedTuple``.  ``__slots__`` lists the fields in
    constructor order; equality and ``repr`` go field by field, as a
    dataclass's do.  A record is mutable and so unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Location(NamedTuple):
    """One addressable point of the layout (storage slot or anchor)."""

    id: LocationId
    x_cm: float
    y_cm: float
    z_cm: float
    zone: str
    seq_no: int


class Item(NamedTuple):
    """Catalog entry for one stock-keeping unit; ``qty_per_pallet`` is at
    least 1 (``load_items`` and ``Warehouse`` refuse less)."""

    code: str
    home_zone: str
    qty_per_pallet: int


class PalletRecord(_Record):
    """One pallet of a single item on one slot: a row of the inventory file
    as loaded, or a pallet the warehouse holds."""

    __slots__ = ("location", "item", "qty", "mfg_date")

    def __init__(self, location: LocationId, item: str, qty: int, mfg_date: date):
        self.location = location
        self.item = item
        self.qty = qty
        self.mfg_date = mfg_date


class Equipment(NamedTuple):
    """A class of handling equipment and its motion parameters.

    ``speed_cm_s`` is planar travel speed, ``lift_speed_cm_s`` vertical
    speed (zero means the equipment cannot lift), ``turn_time_s`` the
    fixed cost per aisle change.
    """

    kind: str
    speed_cm_s: float
    lift_speed_cm_s: float
    turn_time_s: float


class ProcessTotals(_Record):
    """Seconds of one weekly run, each booked where it is charged.

    The picker's walking, handling and stall waiting add up to the last
    order's completion time; the replenisher's put-away travel and
    handling run beside the picker's clock.  ``turns`` counts the aisle
    changes of both.
    """

    __slots__ = ("walk_s", "handle_s", "wait_s", "put_travel_s", "put_handle_s", "turns")

    def __init__(self, walk_s: float = 0.0, handle_s: float = 0.0, wait_s: float = 0.0,
                 put_travel_s: float = 0.0, put_handle_s: float = 0.0, turns: int = 0):
        self.walk_s = walk_s
        self.handle_s = handle_s
        self.wait_s = wait_s
        self.put_travel_s = put_travel_s
        self.put_handle_s = put_handle_s
        self.turns = turns


def travel_time(a: Location, b: Location, eq: Equipment) -> tuple[int, float]:
    """The aisle turns and rectilinear travel seconds of the leg between
    two points with the given equipment, the one price of every leg.

    A leg within one row (the first element of both ids) makes no turn;
    any other leg makes one.  Planar distance moves at ``speed_cm_s``,
    vertical distance at ``lift_speed_cm_s``, and each turn costs
    ``turn_time_s``.  Symmetric in its endpoints.  Vertical travel with
    non-lifting equipment is an error.
    """
    turns = 0 if a.id[0] == b.id[0] else 1
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
    return turns, t + turns * eq.turn_time_s


class Layout(NamedTuple):
    """The index of a layout a run builds once and every reader shares:
    storage slots and anchor points, each keyed by id, and the storage
    slots of each zone, in layout order."""

    storage: dict[LocationId, Location]
    anchors: dict[LocationId, Location]
    zones: dict[str, list[Location]]


def index_layout(locations: Iterable[Location]) -> Layout:
    """The ``Layout`` of a list of points, each checked by ``_check_new``.

    An anchor the layout lacks stands at the origin.  A repeated id or
    storage ``seq_no``, and an id on the anchor row that is not an
    anchor's, are errors.
    """
    layout = Layout({}, {}, {})
    seqs: set[int] = set()
    for loc in locations:
        _check_new(loc, layout, seqs)
    for anchor_id, seq_no in zip(ANCHOR_IDS, (-3, -2, -1)):
        if anchor_id not in layout.anchors:
            layout.anchors[anchor_id] = Location(anchor_id, 0.0, 0.0, 0.0, ANCHOR_ZONE, seq_no)
    return layout


def _check_new(loc: Location, layout: Layout, seqs: set[int]) -> None:
    """Refuse a point of the anchor row that is not one of the three
    anchors, an id already in ``layout`` and a storage slot whose
    ``seq_no`` is already in ``seqs``; then add the point to ``layout``,
    and a storage slot's ``seq_no`` to ``seqs``."""
    loc_id = loc.id
    anchor = loc_id[0] == ANCHOR_ROW
    if anchor and loc_id not in ANCHOR_IDS:
        raise InputDataError(f"row {ANCHOR_ROW} holds only the anchors {ENTRANCE_ID}, "
                             f"{SPECIAL_AREA_ID} and {ELEVATOR_ID}, got {loc_id}")
    points = layout.anchors if anchor else layout.storage
    if loc_id in points:
        raise InputDataError(f"duplicate location id {loc_id}")
    if not anchor:
        if loc.seq_no in seqs:
            raise InputDataError(f"seq_no {loc.seq_no} of slot {loc_id} repeats an earlier "
                                 "storage slot's")
        seqs.add(loc.seq_no)
        layout.zones.setdefault(loc.zone, []).append(loc)
    points[loc_id] = loc


def _check_item(item: Item, items: dict[str, Item]) -> None:
    """Refuse an item whose code is already in ``items`` and one of fewer
    than 1 or more than 2**53 pieces per pallet; then add it to ``items``.
    A line's loose pieces are fewer than a pallet's, so under that bound
    each line's count of loose pieces or master cartons converts to a
    float exactly."""
    if item.code in items:
        raise InputDataError(f"duplicate item code {item.code}")
    if item.qty_per_pallet < 1:
        raise InputDataError(f"item {item.code}: qty_per_pallet must be >= 1")
    if item.qty_per_pallet > 2 ** 53:
        raise InputDataError(f"item {item.code}: qty_per_pallet must be <= 2**53")
    items[item.code] = item


class Warehouse:
    """A ``Layout`` index, whose ``storage``, ``anchors`` and ``zones`` it
    shares and never changes, plus live inventory and its change log,
    which ``verify_conservation`` audits the inventory against at any
    instant.  ``audit=True`` only marks a warehouse a run checks after
    every event.
    """

    def __init__(self, layout: Layout, items: Iterable[Item], audit: bool = False):
        self.storage, self.anchors, self.zones = layout
        self.items: dict[str, Item] = {}
        for item in items:
            _check_item(item, self.items)

        self.records: dict[LocationId, PalletRecord] = {}
        # item code -> lot heap of (mfg_date, seq_no, record); see the module docstring
        self._lots: dict[str, list[tuple[date, int, PalletRecord]]] = {
            code: [] for code in self.items}
        self._on_hand: dict[str, int] = dict.fromkeys(self.items, 0)
        self.log: list[tuple[PalletRecord, int, int]] = []  # see the module docstring

        self.audit = audit
        # verify_conservation's log position, placed - picked and last date picked
        self._audited = 0
        self._logged: dict[str, int] = dict.fromkeys(self.items, 0)
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
        self.log.append((record, qty, qty))

    def pick(self, item_code: str, qty: int) -> tuple[int, int]:
        """Consume ``qty`` pieces oldest-first, splitting across pallets.

        Drained pallets are removed, freeing their slots.  Returns
        ``(pallets_touched, loose_pieces)``: the loose pieces are those
        taken from a pallet that is left standing, which only the last
        pallet touched can be.  Callers must ensure qty <= total_on_hand
        beforehand.

        One loop walks the lot heap from its head.  Its first test is
        whether the head pallet holds more than is still wanted: that
        pallet stays standing and the pick ends there, with no heap pop.
        Otherwise the pallet is drained and popped.  Per pallet the
        change log gets ``(record, -taken, left)``: a pallet left standing
        logs the pieces it still holds, a drained one ``-held, 0``, its
        only drain entry.  A drained record keeps its last ``qty``, which
        no reader consults.
        """
        if qty < 1:
            raise InputDataError(f"pick quantity must be >= 1, got {qty}")
        lots = self._lots.get(item_code)
        if lots is None:
            self.item(item_code)  # raises for an unknown code
        on_hand = self._on_hand
        log = self.log
        touched = 0
        remaining = qty
        while lots:
            record = lots[0][2]
            touched += 1
            held = record.qty
            if held > remaining:
                left = record.qty = held - remaining
                on_hand[item_code] -= remaining
                log.append((record, -remaining, left))
                return touched, remaining
            heapq.heappop(lots)
            del self.records[record.location]
            on_hand[item_code] -= held
            log.append((record, -held, 0))
            remaining -= held
            if not remaining:
                return touched, 0
        raise InputDataError(
            f"pick of {qty} x {item_code} exceeds stock ({qty - remaining} taken)"
        )

    def verify_conservation(self) -> None:
        """Assert placed - picked == on-hand for every item, and that
        consumed manufacturing dates never decrease per item.

        Both are read from the change log, on from where the last call
        stopped.  On-hand is summed from the pallet records, not read from
        the running counter, so the check stays independent of the counter;
        the counter is then checked against that sum as well.
        """
        for record, pieces, _ in self.log[self._audited:]:
            code = record.item
            self._logged[code] += pieces
            if pieces < 0:
                last = self._last_picked_date.get(code, date.min)
                assert record.mfg_date >= last, (
                    f"FIFO violation for {code}: consumed {record.mfg_date} after {last}"
                )
                self._last_picked_date[code] = record.mfg_date
        self._audited = len(self.log)
        held = dict.fromkeys(self.items, 0)
        for record in self.records.values():
            held[record.item] += record.qty
        for code, expected in self._logged.items():
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


@contextmanager
def _reading(path: str, header: list[str]) -> Iterator[Iterator[list[str]]]:
    """The one reading primitive of every CSV loader: open ``path``, check
    that its first row is ``header`` and yield its data rows, blank lines
    skipped, for the loader to iterate in its own loop.

    The loader unpacks each row into one name per header column, and that
    unpacking is the check of the row's width.  A file that cannot be
    opened or decoded, a malformed row and a ``ValueError`` from the
    ``with`` block raise a one-line ``ParseError`` naming ``path:line``;
    an ``InputDataError`` from the block gets the same prefix.  The line
    is the one the failing row starts on and, like the wrong width that
    the message then names, is found only after the fact by
    ``_failed_row``, so reading a row does no bookkeeping for it.  A
    leading UTF-8 byte-order mark, as spreadsheet exports write, is
    dropped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh, strict=True)
            try:
                first = next(reader, None)
                if first != header:
                    raise ParseError(
                        f"{path}: expected header {','.join(header)}, got "
                        f"{','.join(first or ['<empty>'])}"
                    )
                yield filter(None, reader)
            except (ValueError, csv.Error, InputDataError) as exc:
                undecodable = isinstance(exc, UnicodeDecodeError)
                line, cells = _failed_row(fh, reader, undecodable)
                message = "not UTF-8 text" if undecodable else str(exc)
                if cells is not None and len(cells) != len(header):
                    message = f"expected {len(header)} cells, got {len(cells)}"
                kind = InputDataError if isinstance(exc, InputDataError) else ParseError
                raise kind(f"{path}:{line}: {message}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _failed_row(fh: TextIO, reader, undecodable: bool) -> tuple[int, list[str] | None]:
    """The line on which the failing row starts, and its cells if it reads:
    the row that ``reader``, reading ``fh``, last returned or failed in,
    or with ``undecodable`` the first row that is not UTF-8 text.

    ``fh`` is read again from its start, its bytes split into lines as
    the reader splits them and each line decoded on its own, since the
    reader's text was decoded a block ahead of it.  A quoted cell may span
    lines, and blank lines count.  A handle that cannot seek, such as a
    pipe, is not read again: the line named is the one where the reader
    stopped, and no cells.
    """
    if not fh.seekable():
        return reader.line_num + undecodable, None
    fh.buffer.seek(0)
    again = csv.reader((raw.decode("utf-8") for raw in fh.buffer.read().splitlines(True)),
                       strict=True)
    start = 1
    with suppress(ValueError, csv.Error):  # the failing row fails again
        for cells in again:
            if again.line_num >= reader.line_num and not undecodable:
                return start, cells
            start = again.line_num + 1
    return start, None


def _isoformat(parse: Callable[[str], date], cell: str) -> date:
    """``parse(cell)``, a ``fromisoformat``, whose ``ValueError`` quotes at
    most the cell's first 200 characters, as ``_finite``'s does."""
    try:
        return parse(cell)
    except ValueError as exc:
        raise ValueError(str(exc).replace(repr(cell), repr(cell[:200]))) from None


def _finite(cell: str) -> float:
    """A numeric cell that must be a finite number; ``_reading`` reports its
    ``ValueError`` at ``path:line``.  The message quotes at most the cell's
    first 200 characters, so a cell of thousands is not echoed whole."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"could not convert string to float: {cell[:200]!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{cell[:200]!r} is not a finite number")
    return value


class _TooManyDigits(ValueError):
    """A number of more decimal digits than Python converts to an integer."""


def _int(text: str) -> int:
    """``int(text)``, but a text of more decimal digits than Python converts
    (4,300 unless the interpreter is set otherwise) raises
    ``_TooManyDigits`` saying so, where Python's own message would tell the
    user to call an interpreter function.  The caller names the source."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and sum(char.isdecimal() for char in text) > limit:
            raise _TooManyDigits(f"a number has more than {limit:,} digits") from None
        raise


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


def load_layout(path: str) -> Layout:
    """The ``Layout`` of a layout file, built by ``index_layout`` as the
    rows are read, so an error names ``path:line``."""
    with _reading(path, LAYOUT_HEADER) as rows:
        return index_layout(
            _new(Location, ((_int(row), _int(layer), _int(slot)), _finite(x_cm), _finite(y_cm),
                            _finite(z_cm), zone, _int(seq_no)))
            for row, layer, slot, x_cm, y_cm, z_cm, zone, seq_no in rows)


def save_layout(locations: Iterable[Location], path: str) -> None:
    _write_csv(path, LAYOUT_HEADER, (
        [*loc.id, loc.x_cm, loc.y_cm, loc.z_cm, loc.zone, loc.seq_no] for loc in locations
    ))


def load_items(path: str) -> list[Item]:
    items: dict[str, Item] = {}
    with _reading(path, ITEMS_HEADER) as rows:
        for code, home_zone, qty_per_pallet in rows:
            # as Warehouse does, here so the error names path:line
            _check_item(Item(code, home_zone, _int(qty_per_pallet)), items)
    return list(items.values())


def save_items(items: Iterable[Item], path: str) -> None:
    _write_csv(path, ITEMS_HEADER, (
        [item.code, item.home_zone, item.qty_per_pallet] for item in items
    ))


def load_inventory(path: str) -> list[PalletRecord]:
    records: list[PalletRecord] = []
    with _reading(path, INVENTORY_HEADER) as rows:
        for row, layer, slot, item_code, qty, mfg_date in rows:
            record = PalletRecord((_int(row), _int(layer), _int(slot)), item_code, _int(qty),
                                  _isoformat(date.fromisoformat, mfg_date))
            if record.qty < 1:
                raise InputDataError(f"initial pallet of {item_code}: qty must be >= 1, "
                                     f"got {record.qty}")
            records.append(record)
    return records


def save_inventory(records: Iterable[PalletRecord], path: str) -> None:
    _write_csv(path, INVENTORY_HEADER, (
        [*r.location, r.item, r.qty, r.mfg_date.isoformat()] for r in records
    ))
