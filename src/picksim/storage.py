"""Storage policies: where an arriving pallet goes.

Three policies share one mechanism, differing only in the candidate
slot set for an item:

* fixed      - the item's dedicated slots from a slot map
* random     - every storage slot (shared storage)
* fixed-zone - every slot inside the item's home zone

Among vacant candidates the policy picks the one with the smallest
travel time from the receiving elevator (ties by route position).
"Random" storage is therefore shared-but-deterministic: the nearest
vacant slot anywhere, with no randomness involved.  A put-away always
places one full pallet, the only arrival the model makes.

The candidate sets partition the storage slots: one set per mapped item
under fixed, one per zone under fixed-zone, a single set under random,
and no slot in two sets.  A slot map that gives a slot to two items is
an input error.  The policy builds every set at construction, along with
the ``(travel_s, seq_no, loc_id, turns)`` key of every storage slot, so
equipment that cannot reach a slot fails there.  Each set keeps

* ``heap``   - a min-heap of its slots' keys.  Deletion is lazy: a slot
  that fills stays in the heap and is popped when it reaches the top
  while occupied.  Invariant: every vacant slot of the set has at least
  one entry in the heap, so after popping occupied heads the top is the
  nearest vacant slot, and the heap is empty exactly when the set has
  no vacant slot;
* ``parked`` - the items found at the top of the stock heap (below)
  while the set had no vacancy.

The policy also keeps the stock heap, a min-heap of ``(on_hand, code)``
over the catalog items that have a candidate set, from which
``restock_choice`` picks the product each replenishment visit restocks.
Deletion is lazy here too: an entry whose quantity differs from the
item's on-hand count is stale and is popped when it reaches the top.
Invariant: every item either has an entry equal to its on-hand count or
is parked on its set, so the first fresh entry whose set has a vacancy
is the eligible item with the least stock (ties by code).  Items found
on top while their set is full are popped and parked; when the set gets
a vacant slot again they are pushed back at their current count.

The warehouse keeps both indices current: it calls ``_slot_drained``
after every pick that empties a slot, which pushes the slot back onto
its set's heap and un-parks the set's items, and ``_stock_changed``
after every change of an item's on-hand count, which pushes the item's
fresh entry.  A placement needs no call of its own: the filled slot is
popped from its heap once it reaches the top.

The policy joins the warehouse's watcher list at construction and keeps
the warehouse, so the two form a reference cycle while both are in use.
The scenario runner (``experiment._run_week``) breaks it when the week
ends, on return and on raise, by clearing that list; a run then makes no
cycles, and it can leave the cyclic garbage collector paused.
"""

from __future__ import annotations

import enum
import heapq
import logging
from datetime import date
from typing import NamedTuple

from .allocation import SlotMap
from .errors import InputDataError
from .warehouse import (
    ELEVATOR_ID,
    Equipment,
    Location,
    LocationId,
    PalletRecord,
    Warehouse,
    aisle_turns,
    travel_time,
)

log = logging.getLogger("picksim.storage")


class PolicyKind(enum.Enum):
    FIXED = "fixed"
    RANDOM = "random"
    FIXED_ZONE = "fixed-zone"


class Assignment(NamedTuple):
    """A completed put-away: where the pallet went and how far it travelled."""

    location: LocationId
    travel_s: float
    turns: int


class _SlotSet:
    """One candidate set: its slots, lazy min-heap and the items parked on
    it while it is full."""

    __slots__ = ("slots", "heap", "parked")

    def __init__(self, slots: list[Location]):
        self.slots = slots
        self.heap: list[tuple[float, int, LocationId, int]] = []
        self.parked: set[str] = set()


class StoragePolicy:
    """Slot chooser for one warehouse and one policy kind."""

    def __init__(self, kind: PolicyKind, warehouse: Warehouse, equipment: Equipment,
                 slot_map: SlotMap | None = None):
        if kind is PolicyKind.FIXED and slot_map is None:
            raise InputDataError("fixed storage policy needs a slot map")
        self.kind = kind
        self.warehouse = warehouse
        self.equipment = equipment
        self.receiving = warehouse.location(ELEVATOR_ID)
        self._keys = {lid: self._key(loc) for lid, loc in warehouse.storage.items()}
        self._set_of_slot: dict[LocationId, _SlotSet] = {}
        self._set_of_item: dict[str, _SlotSet] = {}
        if kind is PolicyKind.FIXED:
            for code, ids in slot_map.items():
                if ids:
                    self._set_of_item[code] = self._build([warehouse.location(lid)
                                                           for lid in ids])
        elif kind is PolicyKind.FIXED_ZONE:
            zones: dict[str, list[Location]] = {}
            for loc in warehouse.storage.values():
                zones.setdefault(loc.zone, []).append(loc)
            zone_sets = {zone: self._build(slots) for zone, slots in zones.items()}
            for code, item in warehouse.items.items():
                if item.home_zone in zone_sets:
                    self._set_of_item[code] = zone_sets[item.home_zone]
        else:
            every = self._build(list(warehouse.storage.values()))
            self._set_of_item = dict.fromkeys(warehouse.items, every)
        # catalog items without a candidate set, in catalog order
        self._homeless = [code for code in warehouse.items if code not in self._set_of_item]
        self._stock = [(on_hand, code) for code, on_hand in warehouse._on_hand.items()
                       if code in self._set_of_item]
        heapq.heapify(self._stock)
        warehouse._watchers.append(self)

    def _build(self, slots: list[Location]) -> _SlotSet:
        made = _SlotSet(slots)
        for loc in slots:
            if loc.id in self._set_of_slot:
                raise InputDataError(f"slot map gives slot {loc.id} more than once")
            self._set_of_slot[loc.id] = made
            if self.warehouse.is_vacant(loc.id):
                made.heap.append(self._keys[loc.id])
        heapq.heapify(made.heap)
        return made

    # -- candidate sets ----------------------------------------------------

    def candidate_slots(self, item_code: str) -> list[Location]:
        """All slots the policy would ever consider for this item; read-only."""
        return self._set_for(item_code).slots

    def nearest_vacant(self, item_code: str) -> Location | None:
        """Vacant candidate with the smallest travel time from receiving."""
        heap = self._vacant_heap(self._set_for(item_code))
        return self.warehouse.storage[heap[0][2]] if heap else None

    def _vacant_heap(self, slot_set: _SlotSet) -> list[tuple[float, int, LocationId, int]]:
        """The set's heap with its occupied heads popped: its top is the
        nearest vacant slot, and it is empty when the set has none."""
        heap = slot_set.heap
        records = self.warehouse.records
        while heap and heap[0][2] in records:
            heapq.heappop(heap)
        return heap

    def primary_location(self, item_code: str) -> Location:
        """Fallback route stop for an item that is momentarily out of stock."""
        candidates = self.candidate_slots(item_code)
        if self.kind is PolicyKind.FIXED:
            return candidates[0]
        return min(candidates, key=lambda loc: loc.seq_no)

    def _set_for(self, item_code: str) -> _SlotSet:
        found = self._set_of_item.get(item_code)
        if found is None:
            if self.kind is PolicyKind.FIXED:
                raise InputDataError(f"item {item_code} has no dedicated slots in the slot map")
            zone = self.warehouse.item(item_code).home_zone
            raise InputDataError(f"home zone {zone!r} of item {item_code} has no slots")
        return found

    def _key(self, loc: Location) -> tuple[float, int, LocationId, int]:
        """Heap key of a slot: travel seconds from receiving, route
        position and id, then the aisle turns of that travel."""
        turns = aisle_turns(self.receiving, loc)
        return travel_time(self.receiving, loc, self.equipment, turns), loc.seq_no, loc.id, turns

    # -- replenishment choice ----------------------------------------------

    def restock_choice(self) -> str | None:
        """The item with the least stock among those with a vacant candidate
        slot (ties by item code); None if no item has one.

        A catalog item without a candidate set is an input error here,
        reported for the first such item in catalog order.
        """
        if self._homeless:
            self._set_for(self._homeless[0])
        stock = self._stock
        on_hand = self.warehouse._on_hand
        set_of_item = self._set_of_item
        while stock:
            qty, code = stock[0]
            if qty == on_hand[code]:
                slot_set = set_of_item[code]
                if self._vacant_heap(slot_set):
                    return code
                slot_set.parked.add(code)
            heapq.heappop(stock)
        return None

    # -- warehouse notifications -------------------------------------------

    def _slot_drained(self, loc_id: LocationId) -> None:
        slot_set = self._set_of_slot.get(loc_id)
        if slot_set is not None:
            heapq.heappush(slot_set.heap, self._keys[loc_id])
            if slot_set.parked:
                on_hand = self.warehouse._on_hand
                for code in slot_set.parked:
                    heapq.heappush(self._stock, (on_hand[code], code))
                slot_set.parked.clear()

    def _stock_changed(self, item_code: str, on_hand: int) -> None:
        heapq.heappush(self._stock, (on_hand, item_code))

    # -- put-away ----------------------------------------------------------

    def put_away(self, item_code: str, mfg_date: date) -> Assignment:
        """Place one full pallet in the nearest vacant candidate slot.

        The caller makes sure the item has one, as ``restock_choice`` does.
        """
        slot = self.nearest_vacant(item_code)
        assert slot is not None, f"put-away of {item_code} without a vacant candidate slot"
        self.warehouse.place(slot.id, item_code, self.warehouse.item(item_code).qty_per_pallet,
                             mfg_date)
        travel, _, _, turns = self._keys[slot.id]
        return Assignment(slot.id, travel, turns)


def place_initial(policy: StoragePolicy, pallets: list[PalletRecord],
                  priority: dict[str, float]) -> int:
    """Load initial stock into a fresh warehouse under the active policy.

    Pallets are placed in descending item priority (average picks), then
    oldest first, each to its nearest vacant candidate slot, so the
    starting state respects the same containment rules as live put-away.
    A pallet whose candidate set is full falls back to the nearest vacant
    slot anywhere (logged); returns how many pallets needed the fallback.
    """
    wh = policy.warehouse
    ordered = sorted(pallets, key=lambda p: (-priority.get(p.item, 0.0), p.item,
                                             p.mfg_date, p.location))
    fallbacks = 0
    for pallet in ordered:
        slot = policy.nearest_vacant(pallet.item)
        if slot is None:
            nearest = min((key for lid, key in policy._keys.items() if lid not in wh.records),
                          default=None)
            if nearest is None:
                raise InputDataError("initial inventory exceeds total warehouse capacity")
            slot = wh.storage[nearest[2]]
            fallbacks += 1
            log.warning("initial pallet of %s placed outside its policy slots (all full)",
                        pallet.item)
        wh.place(slot.id, pallet.item, pallet.qty, pallet.mfg_date)
    return fallbacks
