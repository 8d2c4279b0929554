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
under fixed, one per zone of the warehouse's ``Layout`` index
(``warehouse.zones``) under fixed-zone, a single set under random, and no
slot in two sets.  Whatever those sets leave uncovered (the slots
a fixed slot map gives to no item) forms one residual set that no item
maps to, so every storage slot is in exactly one set.  A slot map that
gives a slot to two items is an input error, and so is a catalog item
without a set: one the slot map omits, or one whose home zone has no
slot.  The policy builds every set at construction, along with the
``(travel_s, seq_no, loc_id, turns)`` key of every storage slot, so
these errors, and equipment that cannot reach a slot, fail there.  Each
set keeps

* ``vacant`` - the sorted list of the keys of its vacant slots, exact at
  every query: its head is the nearest vacant slot, it is empty exactly
  when the set has none, and the least head over all sets is the
  nearest vacant slot anywhere, which ``place_initial`` falls back to;
* ``parked`` - the items found at the top of the stock heap (below)
  while the set had no vacancy.

The policy also keeps the stock heap, a min-heap of ``(on_hand, code)``
over the catalog items, from which
``restock_choice`` picks the product each replenishment visit restocks.
Deletion is lazy here: an entry whose quantity differs from the
item's on-hand count is stale and is popped when it reaches the top.
Invariant: every item either has an entry equal to its on-hand count or
is parked on its set, so the first fresh entry whose set has a vacancy
is the eligible item with the least stock (ties by code).  Items found
on top while their set is full are popped and parked; when the set gets
a vacant slot again they are pushed back at their current count.

Both indices are kept current from the warehouse's change log, read
from the policy's own position.  At the top of every query
(``nearest_vacant``, ``restock_choice``) the policy catches up.  Each
entry pushes a fresh stock entry for its item, and an entry that moves
a slot's vacancy is one of two cases:

* a placement (``pieces > 0``) deletes the slot's key from its set's list;
* a drain (``left == 0``, logged once per pallet) inserts the key and
  un-parks the set's items.

Equal duplicate stock entries are interchangeable.  The warehouse holds
no reference back to the policy, so the two make no reference cycle.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left, insort
from datetime import date
from typing import NamedTuple

from .allocation import SlotMap
from .errors import InputDataError, _logger
from .warehouse import (
    ELEVATOR_ID,
    Equipment,
    Location,
    LocationId,
    PalletRecord,
    Warehouse,
    _new,
    aisle_turns,
    travel_time,
)


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
    """One candidate set: its slots, the sorted keys of its vacant slots and
    the items parked on it while it is full."""

    __slots__ = ("slots", "vacant", "parked")

    def __init__(self, slots: list[Location]):
        self.slots = slots
        self.vacant: list[tuple[float, int, LocationId, int]] = []
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
            zone_sets = {zone: self._build(slots) for zone, slots in warehouse.zones.items()}
            self._set_of_item = {code: zone_sets.get(item.home_zone)
                                 for code, item in warehouse.items.items()}
        else:
            every = self._build(list(warehouse.storage.values()))
            self._set_of_item = dict.fromkeys(warehouse.items, every)
        # the residual set: the slots no item's set covers
        self._build([loc for loc in warehouse.storage.values() if loc.id not in self._set_of_slot])
        for code in warehouse.items:
            self._set_for(code)  # refuses a catalog item without a candidate set
        self._stock = [(on_hand, code) for code, on_hand in warehouse._on_hand.items()]
        heapq.heapify(self._stock)
        self._read = len(warehouse.log)  # log position

    def _build(self, slots: list[Location]) -> _SlotSet:
        made = _SlotSet(slots)
        for loc in slots:
            if loc.id in self._set_of_slot:
                raise InputDataError(f"slot map gives slot {loc.id} more than once")
            self._set_of_slot[loc.id] = made
        made.vacant = sorted(self._keys[loc.id] for loc in slots
                             if self.warehouse.is_vacant(loc.id))
        return made

    def _catch_up(self) -> None:
        """Read the change log from the policy's position to its end."""
        wh = self.warehouse
        end = len(wh.log)
        if self._read == end:
            return
        on_hand = wh._on_hand
        stock = self._stock
        keys = self._keys
        set_of_slot = self._set_of_slot
        push = heapq.heappush
        for record, pieces, left in wh.log[self._read:]:
            if pieces > 0:  # placed: the slot is taken
                vacant = set_of_slot[record.location].vacant
                del vacant[bisect_left(vacant, keys[record.location])]
            elif not left:  # drained: the slot is free
                slot_set = set_of_slot[record.location]
                insort(slot_set.vacant, keys[record.location])
                for code in slot_set.parked:
                    push(stock, (on_hand[code], code))
                slot_set.parked.clear()
            code = record.item
            push(stock, (on_hand[code], code))
        self._read = end

    # -- candidate sets ----------------------------------------------------

    def candidate_slots(self, item_code: str) -> list[Location]:
        """All slots the policy would ever consider for this item; read-only."""
        return self._set_for(item_code).slots

    def nearest_vacant(self, item_code: str) -> Location | None:
        """Vacant candidate with the smallest travel time from receiving."""
        self._catch_up()
        vacant = self._set_for(item_code).vacant
        return self.warehouse.storage[vacant[0][2]] if vacant else None

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
        slot (ties by item code); None if no item has one."""
        self._catch_up()
        stock = self._stock
        on_hand = self.warehouse._on_hand
        set_of_item = self._set_of_item
        while stock:
            qty, code = stock[0]
            if qty == on_hand[code]:
                slot_set = set_of_item[code]
                if slot_set.vacant:
                    return code
                slot_set.parked.add(code)
            heapq.heappop(stock)
        return None

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
        return _new(Assignment, (slot.id, travel, turns))


def place_initial(policy: StoragePolicy, pallets: list[PalletRecord],
                  priority: dict[str, float]) -> int:
    """Load initial stock into a fresh warehouse under the active policy.

    Pallets are placed in descending item priority (average picks), then
    oldest first, each to its nearest vacant candidate slot, so the
    starting state respects the same containment rules as live put-away.
    A pallet whose candidate set is full falls back to the nearest vacant
    slot anywhere (a warning on the ``picksim.storage`` logger); returns how
    many pallets needed the fallback.
    """
    wh = policy.warehouse
    sets = set(policy._set_of_slot.values())
    ordered = sorted(pallets, key=lambda p: (-priority.get(p.item, 0.0), p.item,
                                             p.mfg_date, p.location))
    fallbacks = 0
    for pallet in ordered:
        slot = policy.nearest_vacant(pallet.item)
        if slot is None:
            nearest = min((s.vacant[0] for s in sets if s.vacant), default=None)
            if nearest is None:
                raise InputDataError("initial inventory exceeds total warehouse capacity")
            slot = wh.storage[nearest[2]]
            fallbacks += 1
            _logger(__name__).warning(
                "initial pallet of %s placed outside its policy slots (all full)", pallet.item)
        wh.place(slot.id, pallet.item, pallet.qty, pallet.mfg_date)
    return fallbacks
