"""Slot allocation: how many slots each product gets, and which ones.

Counting works in two phases.  Phase one hands every product one slot.
Phase two repeatedly grants the next free slot to the product with the
highest dispatching ratio demand/slots-held, until the pool is
exhausted.  The homogeneous rule uses demand 1 for everyone (and so
degenerates to round-robin); the demand-based rule uses average picks
per product.  Exact ratio ties go to the lexicographically smallest
item code.  Phase two keeps every product in a min-heap keyed
``(-(demand/slots), code)``, the order in which it ranks them: each
grant pops the head, counts the slot and pushes the product back at its
new ratio, so a grant costs O(log products) instead of a scan of them
all.  Codes are unique, so the heap holds no ties.

Physical assignment then lets products claim concrete slots in
descending demand order, each taking its count of slots closest to the
entrance by travel time.
"""

from __future__ import annotations

import enum
import heapq

from .errors import InputDataError, _cut
from .warehouse import Equipment, Location, LocationId, travel_time


class AllocationRule(enum.Enum):
    HOMOGENEOUS = "homogeneous"
    DEMAND_BASED = "demand"


SlotMap = dict[str, list[LocationId]]


def allocate_slots(avg_picks: dict[str, float], n_slots: int,
                   rule: AllocationRule) -> dict[str, int]:
    """Distribute ``n_slots`` among products; returns slots-held per code."""
    if not avg_picks:
        raise InputDataError("cannot allocate slots for an empty product list")
    for code, picks in avg_picks.items():
        if picks < 0:
            raise InputDataError(f"negative demand for {_cut(code)}")
    if n_slots < len(avg_picks):
        raise InputDataError(
            f"{n_slots} slots cannot cover {len(avg_picks)} products (one slot each minimum)"
        )
    demand = {
        code: (1.0 if rule is AllocationRule.HOMOGENEOUS else float(picks))
        for code, picks in avg_picks.items()
    }
    counts = {code: 1 for code in demand}
    ranked = [(-d, code) for code, d in demand.items()]
    heapq.heapify(ranked)
    for _ in range(n_slots - len(counts)):
        winner = ranked[0][1]
        counts[winner] += 1
        heapq.heapreplace(ranked, (-(demand[winner] / counts[winner]), winner))
    return counts


def assign_physical_slots(counts: dict[str, int], slots: list[Location],
                          avg_picks: dict[str, float], entrance: Location,
                          eq: Equipment) -> SlotMap:
    """Let products claim concrete slots, nearest-to-entrance first.

    Products are served in descending demand order (ties by item code);
    slot preference is ascending travel time from the entrance (ties by
    route position).  Each product's slot list comes out nearest-first.
    """
    needed = sum(counts.values())
    if needed > len(slots):
        raise InputDataError(f"{needed} slots requested but only {len(slots)} available")
    ranked = sorted(
        slots,
        key=lambda loc: (travel_time(entrance, loc, eq)[1], loc.seq_no),
    )
    order = sorted(counts, key=lambda c: (-avg_picks.get(c, 0.0), c))
    slot_map: SlotMap = {}
    cursor = 0
    for code in order:
        take = counts[code]
        slot_map[code] = [loc.id for loc in ranked[cursor:cursor + take]]
        cursor += take
    return slot_map
