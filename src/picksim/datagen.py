"""Synthetic dataset generator: layout, items, stock, orders.

Produces a self-consistent warehouse dataset of a requested scale,
byte-deterministic for a given seed.  The layout is a rack grid (rows
of two-sided aisle positions, up to three layers) with route positions
numbered row-major and contiguous row blocks forming zones.  Item
demand follows a Pareto-like skew so a small share of products carries
most picks.  Every item starts with at least one full pallet, most
order lines are case picks well below a pallet, and item home zones are
sized to zone capacity.  A simulated week has no time budget (it ends
when its last order does), so weekly volume is not bounded against the
replenishment rate.  A scale with fewer slots than items, fewer lines
than weeks, or order times that would run past the end of their week,
is rejected with ``InputDataError``.
"""

from __future__ import annotations

import random
from datetime import date, datetime, time, timedelta
from typing import NamedTuple

from .config import SimConfig
from .errors import InputDataError
from .experiment import DataPaths
from .storage import PolicyKind, StoragePolicy, place_initial
from .warehouse import (
    ELEVATOR_ID,
    ENTRANCE_ID,
    SPECIAL_AREA_ID,
    ANCHOR_ZONE,
    Item,
    Location,
    PalletRecord,
    Warehouse,
    index_layout,
    save_inventory,
    save_items,
    save_layout,
)
from .picking import Order, OrderLine, save_orders

START_DATE = date(2024, 6, 3)  # a Monday
PALLET_SIZES = [40, 60, 80, 100, 120]
POSITIONS_PER_ROW = 6  # aisle depth; each position has two sides


class GenScale(NamedTuple):
    n_items: int
    n_slots: int
    n_lines: int
    weeks: int


def _make_layout(n_slots: int) -> list[Location]:
    layers = 1 if n_slots < 24 else 3
    per_row = POSITIONS_PER_ROW * 2 * layers
    rows = -(-n_slots // per_row)
    n_zones = max(1, min(4, rows))
    locations = [
        Location(ENTRANCE_ID, 0.0, 0.0, 0.0, ANCHOR_ZONE, -3),
        Location(SPECIAL_AREA_ID, 0.0, 60.0, 0.0, ANCHOR_ZONE, -2),
        Location(ELEVATOR_ID, 60.0, 0.0, 0.0, ANCHOR_ZONE, -1),
    ]
    seq = 0
    for row in range(rows):
        zone = f"Z{1 + row * n_zones // rows}"
        for depth in range(POSITIONS_PER_ROW):
            for side in range(2):
                for layer in range(1, layers + 1):
                    if seq >= n_slots:
                        return locations
                    slot = depth * 2 + side
                    locations.append(Location(
                        id=(row, layer, slot),
                        x_cm=300.0 + 400.0 * row + (-75.0 if side == 0 else 75.0),
                        y_cm=150.0 + 150.0 * depth,
                        z_cm=170.0 * (layer - 1),
                        zone=zone,
                        seq_no=seq,
                    ))
                    seq += 1
    return locations


def _make_items(rng: random.Random, scale: GenScale,
                by_zone: dict[str, list[Location]]) -> tuple[list[Item], dict[str, float]]:
    """Items plus their demand weights, home zones sized to zone capacity."""
    # heavy-tailed popularity, each weight capped at 50
    weights = [min(rng.paretovariate(1.2), 50.0) for _ in range(scale.n_items)]
    zone_slots = {zone: len(slots) for zone, slots in by_zone.items()}
    total_slots = sum(zone_slots.values())
    zones = sorted(zone_slots)

    order = sorted(range(scale.n_items), key=lambda i: -weights[i])
    home_zone: list[str] = [""] * scale.n_items
    cum = 0
    bound = 0
    zi = 0
    for rank, i in enumerate(order):
        while rank >= bound and zi < len(zones):
            cum += zone_slots[zones[zi]]
            bound = round(scale.n_items * cum / total_slots)
            zi += 1
        home_zone[i] = zones[min(zi - 1, len(zones) - 1)]

    items: list[Item] = []
    demand: dict[str, float] = {}
    for i in range(scale.n_items):
        code = f"SKU{i + 1:04d}"
        qpp = rng.choice(PALLET_SIZES)
        # this draw once gave the item a weight; it stays so that every
        # later draw, and so every dataset of a seed, is unchanged
        rng.random()
        items.append(Item(code, home_zone[i], qpp))
        demand[code] = weights[i]
    return items, demand


def _make_initial(rng: random.Random, items: list[Item], n_slots: int) -> dict[str, list[tuple[int, date]]]:
    """Pallet quantities and dates per item: one full pallet each, plus a
    partial one while a 70 percent fill budget allows."""
    budget = max(0, int(0.7 * n_slots) - len(items))
    pallets: dict[str, list[tuple[int, date]]] = {}
    for item in items:
        age = rng.randint(7, 25)
        pallets[item.code] = [(item.qty_per_pallet, START_DATE - timedelta(days=age))]
        if budget > 0 and rng.random() < 0.5:
            qty = rng.randint(1, item.qty_per_pallet - 1)
            pallets[item.code].append((qty, START_DATE - timedelta(days=rng.randint(7, 25))))
            budget -= 1
    return pallets


def _make_orders(rng: random.Random, items: list[Item], demand: dict[str, float],
                 scale: GenScale) -> list[Order]:
    codes = [i.code for i in items]
    by_code = {i.code: i for i in items}
    cum_weights = []
    acc = 0.0
    for code in codes:
        acc += demand[code]
        cum_weights.append(acc)

    orders: list[Order] = []
    base = scale.n_lines // scale.weeks
    extra = scale.n_lines % scale.weeks
    for w in range(scale.weeks):
        lines_left = base + (1 if w < extra else 0)
        week_start = START_DATE + timedelta(days=7 * w)
        week_end = datetime.combine(week_start + timedelta(days=7), time())
        k = 0
        while lines_left > 0:
            size = min(rng.randint(1, min(6, len(codes))), lines_left)
            chosen: list[str] = []
            while len(chosen) < size:
                code = rng.choices(codes, cum_weights=cum_weights)[0]
                if code not in chosen:
                    chosen.append(code)
            day = k % 5
            when = datetime.combine(week_start + timedelta(days=day), time(9, 0)) \
                + timedelta(seconds=7 * (k // 5))
            if when >= week_end:
                raise InputDataError(
                    f"week {w + 1}: order {k + 1} would start at {when}, past the end of "
                    f"its week; generate fewer lines per week"
                )
            truck = f"TRK-W{w + 1}D{day + 1}-{rng.randrange(3) + 1}"
            lines = []
            for code in chosen:
                qpp = by_code[code].qty_per_pallet
                # mostly case picks well below a pallet; occasionally a
                # full-pallet-plus line
                if rng.random() < 0.9:
                    qty = rng.randint(1, max(1, qpp // 4))
                else:
                    qty = rng.randint(qpp, 2 * qpp)
                lines.append(OrderLine(code, qty))
            orders.append(Order(f"ORD-W{w + 1}-{k + 1:05d}", when, truck, lines))
            lines_left -= size
            k += 1
    return orders


def generate_data(out_dir: str, seed: int, n_items: int, n_slots: int,
                  n_lines: int, weeks: int) -> dict[str, str]:
    """Write the four dataset files; returns their paths keyed by role."""
    if n_items < 1 or weeks < 1 or n_lines < weeks:
        # a week without a line has no orders, and every run over it exits 3
        raise InputDataError(f"scale values must be positive, with at least one line per "
                             f"week: got {n_items} items, {n_lines} lines, {weeks} weeks")
    if n_slots < n_items:
        raise InputDataError(
            f"{n_slots} slots cannot store {n_items} distinct items (need one slot each)"
        )
    scale = GenScale(n_items, n_slots, n_lines, weeks)
    rng = random.Random(seed)

    locations = _make_layout(n_slots)
    layout = index_layout(locations)
    items, demand = _make_items(rng, scale, layout.zones)
    pallets = _make_initial(rng, items, n_slots)
    orders = _make_orders(rng, items, demand, scale)

    # place starting stock through the zone policy so the file holds a
    # realistic arrangement (reset per run under the active policy anyway)
    warehouse = Warehouse(layout, items)
    policy = StoragePolicy(PolicyKind.FIXED_ZONE, warehouse, SimConfig().stacker())
    place_initial(policy, [PalletRecord((0, 0, 0), item.code, qty, mfg)
                           for item in items for qty, mfg in pallets[item.code]], demand)

    paths = DataPaths.from_dir(out_dir)
    save_layout(locations, paths.layout)
    save_items(items, paths.items)
    save_inventory((warehouse.records[loc_id] for loc_id in sorted(warehouse.records)),
                   paths.inventory)
    save_orders(orders, paths.orders)
    return paths._asdict()
