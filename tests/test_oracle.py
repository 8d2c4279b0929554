"""Engine vs brute-force oracle: frozen hand trace and randomized worlds."""

from __future__ import annotations

import random
from datetime import timedelta

import pytest

from conftest import START, anchors, make_item, slot
from oracle_sim import oracle_run
from runners import engine_run
from picksim import PartialPick, Replenish, SimConfig, StartPickOrder
from picksim.config import ReplenishSettings


def _run_both(world):
    ec, en, metrics, engine = engine_run(
        world["layout"], world["items"], world["initial"], world["policy"],
        world["slot_map"], world["orders"], world["mode"], world["cfg"],
        world["seed"], world["start"])
    oc, on, ow = oracle_run(
        world["layout"], world["items"], world["initial"], world["policy"],
        world["slot_map"], world["orders"], world["mode"], world["cfg"],
        world["seed"], world["start"])
    return (ec, en, metrics, engine), (oc, on, ow)


# -- the hand-checked fixture (values frozen before implementation) -------


def test_hand_trace_engine_completions(three_slot_world):
    (ec, en, metrics, _), _ = _run_both(three_slot_world)
    assert en == ["O3", "O2", "O1"]
    assert ec == [68.0, 135.0, 193.0]
    # legs in and out 23 + 20, 13 + 10 and 18 + 15 s; one visit per order
    # at 10 + 15 s (the 5 pieces of B grabbed at the stall are not
    # charged); waiting 81..100
    assert metrics.walk_s == 99.0
    assert metrics.handle_s == 75.0
    assert metrics.wait_s == 19.0
    assert metrics.walk_s + metrics.handle_s + metrics.wait_s == ec[-1]
    # one restock of B: base 10 + 15 per pallet, and 140 cm at 20 cm/s
    # plus one 3 s turn from the elevator
    assert metrics.put_handle_s == 25.0
    assert metrics.put_travel_s == 10.0


def test_hand_trace_oracle_agrees(three_slot_world):
    (ec, en, metrics, _), (oc, on, ow) = _run_both(three_slot_world)
    assert on == en
    assert oc == ec
    assert ow == metrics.wait_s


def test_hand_trace_event_sequence(three_slot_world):
    trace = []
    engine_run(
        three_slot_world["layout"], three_slot_world["items"],
        three_slot_world["initial"], three_slot_world["policy"],
        three_slot_world["slot_map"], three_slot_world["orders"],
        three_slot_world["mode"], three_slot_world["cfg"],
        three_slot_world["seed"], three_slot_world["start"], trace=trace)
    got = [(ev.time, type(ev.kind).__name__) for ev in trace]
    assert got == [
        (0.0, "StartPickOrder"),   # O3 picked whole, done at 68
        (68.0, "StartPickOrder"),  # O2 walks to B, resume planned at 81
        (81.0, "PartialPick"),     # grabs the 5 on hand, waits for restock
        (100.0, "Replenish"),      # B restocked (lowest stock, tie by code)
        (100.0, "PartialPick"),    # takes the remaining 3, done at 135
        (135.0, "StartPickOrder"),  # O1 runs 18 + 15 walk + 25 handling
        (200.0, "Replenish"),      # work all done: chain stops here
    ]


def test_hand_trace_partial_pick_targets_slot(three_slot_world):
    trace = []
    engine_run(
        three_slot_world["layout"], three_slot_world["items"],
        three_slot_world["initial"], three_slot_world["policy"],
        three_slot_world["slot_map"], three_slot_world["orders"],
        three_slot_world["mode"], three_slot_world["cfg"],
        three_slot_world["seed"], three_slot_world["start"], trace=trace)
    pps = [ev.kind for ev in trace if isinstance(ev.kind, PartialPick)]
    assert all(pp.order == 1 and pp.line == 0 and pp.location == (0, 1, 0)
               for pp in pps)


# -- randomized desk-scale worlds -----------------------------------------

N_WORLDS = 60
_WORLD_BASE = 20_240_600
N_REPEAT_WORLDS = 40
_REPEAT_BASE = 20_261_000


def build_world(k: int, repeats: bool = False) -> dict:
    """Deterministic random world #k: small, feasible, termination-safe.

    With ``repeats`` each order draws its lines' items with replacement
    from two items, so an order can list one item on several lines.  A
    line is then short when the lines of its item up to it need more
    than the stock on hand.

    Feasibility rules: every item can always be restocked eventually.
    Fixed storage gives each item dedicated slots (its slots free up when
    drained); shared and zone storage keep enough spare slots per pool
    (one per item homed there) so a stock-out can never deadlock the
    restocker.
    """
    rng = random.Random((_REPEAT_BASE if repeats else _WORLD_BASE) + k)
    policy = rng.choice(["fixed", "random", "fixed-zone"])
    mode = rng.choice(["area", "zoning"])
    rng.choice(["constant", "distance"])  # chose a walking mode; drawn still, as below
    rep_mode = rng.choice(["constant", "sampled"])
    layers = rng.choice([1, 2])

    n_items = rng.randint(3, 10)
    n_slots = rng.randint(n_items + 3, 20)
    n_zones = rng.choice([2, 3])
    per_row = rng.choice([4, 6])

    slots = []
    for idx in range(n_slots):
        row = idx // per_row
        layer = 1 + (idx % layers)
        zone = f"Z{1 + idx * n_zones // n_slots}"
        slots.append(slot(row, layer, idx % per_row,
                          x=250.0 + 350.0 * row,
                          y=100.0 + 120.0 * (idx % per_row),
                          z=160.0 * (layer - 1),
                          zone=zone, seq=idx))
    layout = anchors() + slots
    zones = sorted({s.zone for s in slots})
    zone_slots = {z: [s for s in slots if s.zone == z] for z in zones}

    # home zones: fill the roomiest zone first so no zone is oversubscribed
    items = []
    homed = {z: 0 for z in zones}
    for i in range(n_items):
        zone = max(zones, key=lambda z: (len(zone_slots[z]) - homed[z], z))
        homed[zone] += 1
        items.append(make_item(f"P{i + 1:02d}", zone=zone,
                               qpp=rng.randint(4, 12)))

    # dedicated slots: at least one each, extras round-robin
    codes = [it.code for it in items]
    pool = list(slots)
    rng.shuffle(pool)
    slot_map = {code: [pool[i].id] for i, code in enumerate(codes)}
    for j in range(n_items, n_slots):
        slot_map[codes[j % n_items]].append(pool[j].id)

    # initial stock under the policy's own containment rule
    initial = []
    occupied = set()
    if policy == "fixed":
        for it in items:
            own = [lid for lid in slot_map[it.code]]
            for lid in own[:rng.randint(0, min(2, len(own)))]:
                initial.append((lid, it.code, rng.randint(1, it.qty_per_pallet),
                                START - timedelta(days=rng.randint(1, 5))))
                occupied.add(lid)
    elif policy == "random":
        budget = n_slots - n_items
        for it in items:
            for _ in range(rng.randint(0, 2)):
                free = [s.id for s in slots if s.id not in occupied]
                if budget <= 0 or not free:
                    break
                lid = rng.choice(free)
                initial.append((lid, it.code, rng.randint(1, it.qty_per_pallet),
                                START - timedelta(days=rng.randint(1, 5))))
                occupied.add(lid)
                budget -= 1
    else:  # fixed-zone: spare one slot per item homed in the zone
        budget = {z: len(zone_slots[z]) - homed[z] for z in zones}
        for it in items:
            for _ in range(rng.randint(0, 2)):
                free = [s.id for s in zone_slots[it.home_zone] if s.id not in occupied]
                if budget[it.home_zone] <= 0 or not free:
                    break
                lid = rng.choice(free)
                initial.append((lid, it.code, rng.randint(1, it.qty_per_pallet),
                                START - timedelta(days=rng.randint(1, 5))))
                occupied.add(lid)
                budget[it.home_zone] -= 1

    n_orders = rng.randint(1, 8)
    orders = []
    lines_left = 30
    for o in range(n_orders):
        n_lines = min(rng.randint(1, min(4, n_items)), lines_left)
        if n_lines == 0:
            break
        lines_left -= n_lines
        if repeats:
            chosen = rng.choices(rng.sample(codes, 2), k=n_lines)
        else:
            chosen = rng.sample(codes, n_lines)
        truck = rng.choice(["TA", "TB", "TC", ""])
        lines = []
        for code in chosen:
            qpp = next(it.qty_per_pallet for it in items if it.code == code)
            lines.append((code, rng.randint(1, 2 * qpp)))
        orders.append((f"W{k}-O{o + 1}", truck, lines))

    if layers == 1:
        rng.random()  # chose a handlift walker; drawn still, so every later draw stays
    mu = rng.choice([60.0, 100.0, 250.0])
    cfg = SimConfig(
        BTpu=10.0, PPpu=15.0, PMpu=rng.choice([0.0, 2.0]),
        BTpa=10.0, PPpa=15.0,
        pieces_per_master=rng.choice([5, 10]),
        metric_unit="seconds",
        replenish=ReplenishSettings(mu_s=mu, sigma_s=20.0 if rep_mode == "sampled" else 0.0),
    )
    rng.choice([30.0, 120.0])  # chose a walking constant; drawn still, so every later draw stays
    return dict(layout=layout, items=items, slot_map=slot_map, initial=initial,
                orders=orders, cfg=cfg, seed=rng.getrandbits(16), start=START,
                policy=policy, mode=mode)


def _assert_bitwise(world):
    (ec, en, metrics, _), (oc, on, ow) = _run_both(world)
    assert en == on, "plan order diverged"
    assert all(c is not None for c in ec), "engine left orders unfinished"
    assert ec == oc, "per-order completion times diverged"
    assert metrics.wait_s == ow, "stock-out waiting time diverged"


@pytest.mark.parametrize("k", range(N_WORLDS))
def test_engine_matches_oracle_bitwise(k):
    _assert_bitwise(build_world(k))


@pytest.mark.parametrize("k", range(N_REPEAT_WORLDS))
def test_engine_matches_oracle_bitwise_with_repeated_items(k):
    _assert_bitwise(build_world(k, repeats=True))


@pytest.mark.parametrize("k", range(0, N_WORLDS, 7))
def test_engine_rerun_is_identical(k):
    world = build_world(k)
    trace, trace2 = [], []
    first = engine_run(world["layout"], world["items"], world["initial"],
                       world["policy"], world["slot_map"], world["orders"],
                       world["mode"], world["cfg"], world["seed"], world["start"],
                       trace=trace)
    world2 = build_world(k)
    second = engine_run(world2["layout"], world2["items"], world2["initial"],
                        world2["policy"], world2["slot_map"], world2["orders"],
                        world2["mode"], world2["cfg"], world2["seed"], world2["start"],
                        trace=trace2)
    assert first[0] == second[0]
    assert [(e.time, e.seq, repr(e.kind)) for e in trace] == \
        [(e.time, e.seq, repr(e.kind)) for e in trace2]
