"""Storage policies: where an arriving pallet goes.

Three policies share one mechanism, differing only in the candidate
slot set for an item:

* fixed      - the item's dedicated slots from a slot map
* random     - every storage slot (shared storage)
* fixed-zone - every slot inside the item's home zone

Among vacant candidates the policy picks the one with the smallest
travel time from the receiving anchor (ties by route position).  "Random"
storage is therefore shared-but-deterministic: the nearest vacant slot
anywhere, with no randomness involved.

Candidate sets are indexed by what they really are: one set per item
under fixed, one per home zone under fixed-zone, and one set of every
slot under random (the same set answers the "anywhere" fallback of
``place_initial`` under the other two).  A set is built on first use,
counting the vacancies the warehouse holds at that moment, and keeps

* ``vacant`` - how many of its slots are vacant, so a vacancy check is
  O(1);
* ``heap``   - a min-heap of ``(travel_s, seq_no, loc_id)`` keys, the
  travel time computed once per slot and policy.  Deletion is lazy: a
  slot that fills stays in the heap and is popped when it reaches the
  top while occupied.  Invariant: every vacant slot of the set has at
  least one entry in the heap, so after popping occupied heads the top
  is the nearest vacant slot.

The warehouse keeps the sets current: it calls ``_slot_filled`` after
every placement and ``_slot_drained`` after every pick that empties a
slot, which decrement and increment ``vacant`` of every set holding the
slot and push the slot back onto their heaps.  A slot may sit in several
sets, for instance when a user slot map gives it to two items.
"""

from __future__ import annotations

import enum
import heapq
import logging
from dataclasses import dataclass
from datetime import date

from .allocation import SlotMap
from .errors import InputDataError
from .warehouse import (
    ELEVATOR_ID,
    Equipment,
    Location,
    LocationId,
    Warehouse,
    aisle_turns,
    travel_time,
)

log = logging.getLogger("picksim.storage")


class PolicyKind(enum.Enum):
    FIXED = "fixed"
    RANDOM = "random"
    FIXED_ZONE = "fixed-zone"


@dataclass(frozen=True)
class Assignment:
    """A completed put-away: where the pallet went and what it cost."""

    location: LocationId
    item: str
    qty: int
    mfg_date: date
    travel_s: float
    handle_s: float
    turns: int


class _SlotSet:
    """One candidate set: its slots, vacancy count and lazy min-heap."""

    __slots__ = ("slots", "vacant", "heap", "unreachable")

    def __init__(self, slots: list[Location]):
        self.slots = slots
        self.vacant = 0
        self.heap: list[tuple[float, int, LocationId]] = []
        # slots the equipment cannot travel to: no key, never in the heap
        self.unreachable: list[Location] = []


class StoragePolicy:
    """Slot chooser for one warehouse and one policy kind."""

    def __init__(self, kind: PolicyKind, warehouse: Warehouse, equipment: Equipment,
                 slot_map: SlotMap | None = None, receiving_id: LocationId = ELEVATOR_ID,
                 base_time_s: float = 0.0, per_pallet_s: float = 0.0):
        if kind is PolicyKind.FIXED and slot_map is None:
            raise InputDataError("fixed storage policy needs a slot map")
        self.kind = kind
        self.warehouse = warehouse
        self.equipment = equipment
        self.slot_map = slot_map or {}
        self.receiving = warehouse.location(receiving_id)
        self.base_time_s = base_time_s
        self.per_pallet_s = per_pallet_s
        self._set_of_item: dict[str, _SlotSet] = {}
        self._zone_sets: dict[str, _SlotSet] = {}
        self._all: _SlotSet | None = None
        self._sets_of_slot: dict[LocationId, list[_SlotSet]] = {}
        self._keys: dict[LocationId, tuple[float, int, LocationId] | None] = {}
        warehouse._watchers.append(self)

    # -- candidate sets ----------------------------------------------------

    def candidate_slots(self, item_code: str) -> list[Location]:
        """All slots the policy would ever consider for this item.

        The set never changes mid-run (layout, slot map and home zones are
        fixed), so it is built on first use and memoized; treat it as
        read-only.
        """
        return self._set_for(item_code).slots

    def has_vacancy(self, item_code: str) -> bool:
        return self._set_for(item_code).vacant > 0

    def nearest_vacant(self, item_code: str) -> Location | None:
        """Vacant candidate with the smallest travel time from receiving."""
        return self._nearest(self._set_for(item_code))

    def primary_location(self, item_code: str) -> Location:
        """Fallback route stop for an item that is momentarily out of stock."""
        wh = self.warehouse
        if self.kind is PolicyKind.FIXED:
            return wh.location(self.candidate_slots(item_code)[0].id)
        candidates = self.candidate_slots(item_code)
        return min(candidates, key=lambda loc: loc.seq_no)

    def _set_for(self, item_code: str) -> _SlotSet:
        found = self._set_of_item.get(item_code)
        if found is not None:
            return found
        wh = self.warehouse
        if self.kind is PolicyKind.FIXED:
            ids = self.slot_map.get(item_code)
            if not ids:
                raise InputDataError(f"item {item_code} has no dedicated slots in the slot map")
            found = self._build([wh.location(lid) for lid in ids])
        elif self.kind is PolicyKind.FIXED_ZONE:
            zone = wh.item(item_code).home_zone
            found = self._zone_sets.get(zone)
            if found is None:
                slots = [loc for loc in wh.storage.values() if loc.zone == zone]
                if not slots:
                    raise InputDataError(f"home zone {zone!r} of item {item_code} has no slots")
                found = self._zone_sets[zone] = self._build(slots)
        else:
            found = self._anywhere()
        self._set_of_item[item_code] = found
        return found

    def _anywhere(self) -> _SlotSet:
        """The set of every storage slot (random's candidates, and the
        fallback of ``place_initial``)."""
        if self._all is None:
            self._all = self._build(list(self.warehouse.storage.values()))
        return self._all

    def _build(self, slots: list[Location]) -> _SlotSet:
        made = _SlotSet(slots)
        is_vacant = self.warehouse.is_vacant
        for loc in slots:
            self._sets_of_slot.setdefault(loc.id, []).append(made)
            if loc.id not in self._keys:
                try:
                    self._keys[loc.id] = (self._travel(loc)[0], loc.seq_no, loc.id)
                except InputDataError:
                    self._keys[loc.id] = None
            key = self._keys[loc.id]
            if key is None:
                made.unreachable.append(loc)
            if is_vacant(loc.id):
                made.vacant += 1
                if key is not None:
                    made.heap.append(key)
        heapq.heapify(made.heap)
        return made

    def _nearest(self, slot_set: _SlotSet) -> Location | None:
        storage = self.warehouse.storage
        records = self.warehouse.records
        for loc in slot_set.unreachable:
            if loc.id not in records:
                self._travel(loc)  # raises: the equipment cannot reach it
        heap = slot_set.heap
        while heap and heap[0][2] in records:
            heapq.heappop(heap)
        return storage[heap[0][2]] if heap else None

    def _travel(self, loc: Location) -> tuple[float, int]:
        """Travel seconds and aisle turns from receiving to a slot."""
        turns = aisle_turns(self.receiving, loc)
        return travel_time(self.receiving, loc, self.equipment, turns), turns

    # -- warehouse notifications -------------------------------------------

    def _slot_filled(self, loc_id: LocationId) -> None:
        for slot_set in self._sets_of_slot.get(loc_id, ()):
            slot_set.vacant -= 1

    def _slot_drained(self, loc_id: LocationId) -> None:
        key = self._keys.get(loc_id)
        for slot_set in self._sets_of_slot.get(loc_id, ()):
            slot_set.vacant += 1
            if key is not None:
                heapq.heappush(slot_set.heap, key)

    # -- put-away ----------------------------------------------------------

    def put_away(self, item_code: str, qty: int, mfg_date: date) -> Assignment:
        """Place one pallet in the nearest vacant candidate slot.

        The caller makes sure the item has one (``has_vacancy``).
        """
        item = self.warehouse.item(item_code)
        if not 1 <= qty <= item.qty_per_pallet:
            raise InputDataError(
                f"put-away of {item_code} must hold 1..{item.qty_per_pallet} pieces, got {qty}"
            )
        slot = self.nearest_vacant(item_code)
        assert slot is not None, f"put-away of {item_code} without a vacant candidate slot"
        self.warehouse.place(slot.id, item_code, qty, mfg_date, source="replenish")
        travel, turns = self._travel(slot)
        return Assignment(slot.id, item_code, qty, mfg_date, travel,
                          self.base_time_s + self.per_pallet_s, turns)


def place_initial(policy: StoragePolicy, rows: list, priority: dict[str, float]) -> int:
    """Load initial stock into a fresh warehouse under the active policy.

    Pallets are placed in descending item priority (average picks), then
    oldest first, each to its nearest vacant candidate slot, so the
    starting state respects the same containment rules as live put-away.
    A pallet whose candidate set is full falls back to the nearest vacant
    slot anywhere (logged); returns how many pallets needed the fallback.
    """
    wh = policy.warehouse
    ordered = sorted(rows, key=lambda r: (-priority.get(r.item, 0.0), r.item,
                                          r.mfg_date, r.location))
    fallbacks = 0
    for row in ordered:
        slot = policy.nearest_vacant(row.item)
        if slot is None:
            slot = policy._nearest(policy._anywhere())
            if slot is None:
                raise InputDataError("initial inventory exceeds total warehouse capacity")
            fallbacks += 1
            log.warning("initial pallet of %s placed outside its policy slots (all full)",
                        row.item)
        wh.place(slot.id, row.item, row.qty, row.mfg_date, source="initial")
    return fallbacks
