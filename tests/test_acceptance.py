"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every numbered criterion below is self-contained: it
states its own tolerance and runtime budget and fails loudly when missed.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import pytest

from conftest import make_item, slot
from oracle_sim import oracle_run
from runners import engine_run
from test_oracle import build_world

from picksim import (
    AllocationRule,
    DataPaths,
    PickingMode,
    PolicyKind,
    ScenarioSpec,
    SimConfig,
    StoragePolicy,
    Warehouse,
    allocate_slots,
    assign_physical_slots,
    gap,
    index_layout,
    load_items,
    load_layout,
    run_scenario,
    summarize,
    travel_time,
    write_results_csv,
)
from picksim.datagen import generate_data
from picksim.warehouse import ENTRANCE_ID


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL - {label}")
        raise
    else:
        print(f"\n[criterion {number}] PASS - {label}")


# -- 1: weekly statistics pipeline ----------------------------------------


def test_criterion_1_weekly_statistics_reproduction():
    with criterion(1, "weekly mean and 95% CI reproduction within 0.01"):
        t0 = time.perf_counter()
        a = summarize([103.0, 143.0, 122.0, 97.0])
        b = summarize([148.0, 150.0, 129.0, 135.0])
        elapsed = time.perf_counter() - t0
        assert a.mean == pytest.approx(116.25, abs=0.01)
        assert a.ci_low == pytest.approx(83.19, abs=0.01)
        assert a.ci_high == pytest.approx(149.31, abs=0.01)
        assert b.mean == pytest.approx(140.5, abs=0.01)
        assert b.ci_low == pytest.approx(124.35, abs=0.01)
        assert b.ci_high == pytest.approx(156.65, abs=0.01)
        assert elapsed < 1.0


# -- 2: relative gap -------------------------------------------------------


def test_criterion_2_gap_reproduction():
    with criterion(2, "total-vs-total gap of 465 and 562 is 20.86% within 0.01"):
        t0 = time.perf_counter()
        value = gap(465.0, 562.0)
        elapsed = time.perf_counter() - t0
        assert value == pytest.approx(20.86, abs=0.01)
        assert elapsed < 1.0


# -- 3: engine equals brute-force oracle ----------------------------------


def test_criterion_3_oracle_equivalence_on_sixty_worlds():
    with criterion(3, "60 desk-scale fixtures bitwise-equal to the naive oracle"):
        t0 = time.perf_counter()
        for k in range(60):
            w = build_world(k)
            args = (w["layout"], w["items"], w["initial"], w["policy"],
                    w["slot_map"], w["orders"], w["mode"], w["cfg"],
                    w["seed"], w["start"])
            ec, en, metrics, _ = engine_run(*args)
            oc, on, ow = oracle_run(*args)
            assert en == on, f"world {k}: plan order diverged"
            assert ec == oc, f"world {k}: completion times diverged"
            assert metrics.wait_s == ow, f"world {k}: waiting diverged"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"


# -- 3b: the picker's time breakdown adds up ------------------------------


def test_criterion_3b_picker_time_adds_up_on_sixty_worlds():
    with criterion(3, "60 desk-scale fixtures: walking + handling + waiting "
                      "equals the last completion within 1e-12"):
        for k in range(60):
            w = build_world(k)
            completions, _, t, _ = engine_run(
                w["layout"], w["items"], w["initial"], w["policy"], w["slot_map"],
                w["orders"], w["mode"], w["cfg"], w["seed"], w["start"])
            assert math.isclose(completions[-1], t.walk_s + t.handle_s + t.wait_s,
                                rel_tol=1e-12), f"world {k}: breakdown does not add up"


# -- 4: conservation and FIFO invariants ----------------------------------


def test_criterion_4_conservation_and_fifo(tmp_path):
    with criterion(4, "stock conservation and FIFO hold under continuous audit"):
        # every third oracle world, re-run under the audit
        for k in range(0, 60, 3):
            w = build_world(k)
            engine_run(w["layout"], w["items"], w["initial"], w["policy"],
                       w["slot_map"], w["orders"], w["mode"], w["cfg"],
                       w["seed"], w["start"], audit=True)
        # a full multi-week scenario under audit as well
        generate_data(str(tmp_path), 31, n_items=8, n_slots=30,
                      n_lines=50, weeks=2)
        spec = ScenarioSpec(name="aud", policy=PolicyKind.FIXED_ZONE,
                            allocation=AllocationRule.DEMAND_BASED,
                            picking=PickingMode.ZONING, weeks=2, seed=7,
                            config=SimConfig(),
                            data=DataPaths.from_dir(str(tmp_path)))
        run_scenario(spec, audit=True)
        # negative control: the checker must catch a manufactured leak
        wh = Warehouse(index_layout([slot(0, 1, 0, 100.0, 100.0, seq=1)]),
                       [make_item("A")])
        wh.place((0, 1, 0), "A", 5, date(2024, 5, 1))
        wh.records[(0, 1, 0)].qty += 1  # leak one phantom piece
        with pytest.raises(AssertionError, match="conservation"):
            wh.verify_conservation()


# -- 5: slot-allocation properties ----------------------------------------


def test_criterion_5_allocation_properties():
    with criterion(5, "allocation rules: balance, monotonicity, exact totals"):
        assert allocate_slots({"A": 50.0, "B": 30.0, "C": 20.0}, 10,
                              AllocationRule.DEMAND_BASED) == \
            {"A": 5, "B": 3, "C": 2}
        rng = random.Random(501)
        for trial in range(40):
            n_products = rng.randint(1, 200)
            codes = [f"P{i:03d}" for i in range(n_products)]
            demand = {c: rng.choice([0.0, rng.uniform(0.01, 40.0)])
                      for c in codes}
            n_slots = rng.randint(n_products, 4 * n_products)
            for rule in AllocationRule:
                counts = allocate_slots(demand, n_slots, rule)
                assert sum(counts.values()) == n_slots, f"trial {trial}"
                assert all(v >= 1 for v in counts.values()), \
                    f"trial {trial}: every product keeps at least one slot"
            counts = allocate_slots(demand, n_slots, AllocationRule.HOMOGENEOUS)
            assert max(counts.values()) - min(counts.values()) <= 1, \
                f"trial {trial}: homogeneous counts differ by more than 1"
            counts = allocate_slots(demand, n_slots, AllocationRule.DEMAND_BASED)
            for a in codes:
                for b in codes:
                    if demand[a] > demand[b]:
                        assert counts[a] >= counts[b], (
                            f"trial {trial}: {a} outsells {b} "
                            f"but holds fewer slots"
                        )


# -- 6: storage-policy containment ----------------------------------------


def _brute_force_nearest(pol: StoragePolicy, wh: Warehouse, code: str):
    best = None
    for loc in pol.candidate_slots(code):
        if not wh.is_vacant(loc.id):
            continue
        key = (travel_time(pol.receiving, loc, pol.equipment)[1], loc.seq_no)
        if best is None or key < best[0]:
            best = (key, loc)
    return None if best is None else best[1]


def test_criterion_6_policy_containment(tmp_path):
    with criterion(6, "1,000 put-aways per policy: containment and nearest slot"):
        generate_data(str(tmp_path), 61, n_items=12, n_slots=60,
                      n_lines=30, weeks=1)
        layout = load_layout(str(tmp_path / "layout.csv"))
        items = load_items(str(tmp_path / "items.csv"))
        codes = [i.code for i in items]
        slots = list(layout.storage.values())
        entrance = layout.anchors[ENTRANCE_ID]
        cfg = SimConfig()
        demand = {c: 1.0 for c in codes}
        counts = allocate_slots(demand, len(slots), AllocationRule.HOMOGENEOUS)
        slot_map = assign_physical_slots(counts, slots, demand, entrance,
                                         cfg.stacker())

        for kind in PolicyKind:
            wh = Warehouse(layout, items)
            pol = StoragePolicy(kind, wh, cfg.stacker(), slot_map=slot_map)
            rng = random.Random(600 + list(PolicyKind).index(kind))
            dedicated = {c: set(slot_map[c]) for c in codes}
            placed = 0
            while placed < 1000:
                code = rng.choice(codes)
                nearest = pol.nearest_vacant(code)
                brute = _brute_force_nearest(pol, wh, code)
                assert (nearest.id if nearest else None) == \
                    (brute.id if brute else None), f"{kind}: nearest diverged"
                if nearest is None:
                    stocked = [c for c in codes if wh.total_on_hand(c) > 0]
                    for c in rng.sample(stocked, min(4, len(stocked))):
                        wh.pick(c, wh.total_on_hand(c))
                    continue
                # a visit: the policy chooses the item, at least ``code`` is eligible
                a = pol.put_away(float(placed), lambda _: date(2024, 6, 1))
                placed += 1
                code = wh.records[a.location].item
                if kind is PolicyKind.FIXED:
                    assert a.location in dedicated[code], \
                        "fixed placement escaped the slot map"
                elif kind is PolicyKind.FIXED_ZONE:
                    assert wh.storage[a.location].zone == \
                        wh.item(code).home_zone, \
                        "zone placement escaped the home zone"
                else:
                    assert a.location in wh.storage
                # the slot was the nearest: every candidate still vacant is farther
                rest = _brute_force_nearest(pol, wh, code)
                assert rest is None or (a.travel_s, wh.storage[a.location].seq_no) < \
                    (travel_time(pol.receiving, rest, pol.equipment)[1], rest.seq_no), \
                    f"{kind}: the visit skipped a nearer vacant slot"
                if rng.random() < 0.25:
                    stocked = [c for c in codes if wh.total_on_hand(c) > 0]
                    victim = rng.choice(stocked)
                    wh.pick(victim, wh.total_on_hand(victim))
            assert placed == 1000


# -- 7: determinism at full production scale ------------------------------


def test_criterion_7_full_scale_determinism(tmp_path):
    with criterion(7, "28,129-line / 153-item / 1,149-slot run: < 60 s, "
                      "byte-identical rerun"):
        data_dir = tmp_path / "data"
        generate_data(str(data_dir), 12345, n_items=153, n_slots=1149,
                      n_lines=28129, weeks=4)
        spec = ScenarioSpec(name="full", policy=PolicyKind.FIXED_ZONE,
                            allocation=AllocationRule.DEMAND_BASED,
                            picking=PickingMode.AREA, weeks=4, seed=12345,
                            config=SimConfig(),
                            data=DataPaths.from_dir(str(data_dir)))
        t0 = time.perf_counter()
        first = run_scenario(spec)
        first_elapsed = time.perf_counter() - t0
        assert first_elapsed < 60.0, f"run took {first_elapsed:.1f} s"
        second = run_scenario(spec)
        assert first.weekly_metrics == second.weekly_metrics
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_results_csv([first], str(p1))
        write_results_csv([second], str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert len(first.weeks) == 4 and all(w.metric > 0 for w in first.weeks)
        for week in first.weeks:
            t = week.totals
            assert math.isclose(week.metric / spec.config.metric_factor(),
                                t.walk_s + t.handle_s + t.wait_s,
                                rel_tol=1e-12), f"week {week.week}: breakdown does not add up"


# -- 8: source-data limits are documented ---------------------------------


def test_criterion_8_readme_states_data_provenance_limits():
    with criterion(8, "README states the reference weekly values come from "
                      "proprietary data and are not regenerated"):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert readme.is_file(), "README.md missing"
        text = readme.read_text(encoding="utf-8").lower()
        assert "proprietary" in text
        assert "103" in text and "143" in text
        assert "does not" in text and "regenerate" in text
