"""Scenario runner: seeds, week bucketing, determinism, CSV schemas."""

from __future__ import annotations

import csv
import gc
import json
import re
import subprocess
import sys
from collections import Counter
from datetime import date, datetime
from pathlib import Path

import pytest

from picksim import (
    AllocationRule,
    DataPaths,
    InfeasibleRunError,
    InputDataError,
    Order,
    OrderLine,
    PickingMode,
    PolicyKind,
    RunResult,
    ScenarioSpec,
    SimConfig,
    StoragePolicy,
    Warehouse,
    WeekOutcome,
    compare_scenarios,
    demand_per_week,
    derive_seed,
    run_scenario,
    run_week,
    split_weeks,
    summarize_results,
    write_paired_csv,
    write_results_csv,
    write_summary_csv,
)
from picksim import experiment
from picksim.cli import main
from picksim.datagen import generate_data
from picksim.warehouse import ProcessTotals
from conftest import anchors, child_env, make_item, slot
from test_golden import DATA_ARGS


def _order(no: str, day: int, hour: int = 9, items=(("A", 1),)) -> Order:
    lines = [OrderLine(code, qty) for code, qty in items]
    return Order(no, datetime(2024, 6, 3 + day, hour), "T1", lines)


# -- seed derivation ------------------------------------------------------


def test_derive_seed_frozen_values():
    assert derive_seed(12345, "x", 1) == 8595327217680237409
    assert derive_seed(12345, "x", 2) == 14158318454559125633
    assert derive_seed(12345, "y", 1) == 15277934249497396960
    assert derive_seed(99, "x", 1) == 2357815595800428762


def test_derive_seed_varies_on_every_component():
    seeds = {derive_seed(m, s, w)
             for m in (1, 2) for s in ("a", "b") for w in (1, 2)}
    assert len(seeds) == 8  # no collisions across the grid


# -- order bucketing ------------------------------------------------------


def test_split_weeks_buckets_by_calendar_week():
    orders = [_order("O1", 0), _order("O2", 3), _order("O3", 7),
              _order("O4", 13), _order("O5", 20)]
    buckets = split_weeks(orders, 2)
    assert [[o.order_no for o in b] for b in buckets] == [["O1", "O2"],
                                                    ["O3", "O4"]]
    # an order beyond the declared horizon is dropped, not misfiled


def test_split_weeks_keeps_file_order_within_bucket():
    orders = [_order("B", 1, hour=17), _order("A", 1, hour=9)]
    buckets = split_weeks(orders, 1)
    assert [o.order_no for o in buckets[0]] == ["B", "A"]  # not re-sorted by time


def test_split_weeks_empty_input():
    assert split_weeks([], 3) == [[], [], []]


def test_demand_per_week_counts_lines_not_pieces():
    orders = [_order("O1", 0, items=(("A", 50), ("B", 1))),
              _order("O2", 7, items=(("A", 2),))]
    assert demand_per_week(orders, 2) == {"A": 1.0, "B": 0.5}


# -- full scenario runs ---------------------------------------------------


def _spec(data_dir: str, name: str = "s", *, policy=PolicyKind.FIXED_ZONE,
          allocation=AllocationRule.DEMAND_BASED, weeks: int = 2,
          seed: int = 12345, cfg: SimConfig | None = None) -> ScenarioSpec:
    return ScenarioSpec(
        name=name, policy=policy, allocation=allocation,
        picking=PickingMode.AREA, weeks=weeks, seed=seed,
        config=cfg or SimConfig(), data=DataPaths.from_dir(data_dir),
    )


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    generate_data(str(out), 21, n_items=8, n_slots=30, n_lines=60, weeks=2)
    return str(out)


def test_run_scenario_is_deterministic(small_dataset, tmp_path):
    res1 = run_scenario(_spec(small_dataset))
    res2 = run_scenario(_spec(small_dataset))
    assert res1.weekly_metrics == res2.weekly_metrics
    assert len(res1.weeks) == 2
    assert all(w.metric > 0 for w in res1.weeks)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_results_csv([res1], str(p1))
    write_results_csv([res2], str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_only_the_fixed_policy_builds_a_slot_map(small_dataset, monkeypatch):
    def refuse(*args):
        raise AssertionError("build_slot_map called")

    monkeypatch.setattr(experiment, "build_slot_map", refuse)
    for policy in (PolicyKind.RANDOM, PolicyKind.FIXED_ZONE):
        assert len(run_scenario(_spec(small_dataset, policy=policy)).weeks) == 2
    with pytest.raises(AssertionError, match="build_slot_map called"):
        run_scenario(_spec(small_dataset, policy=PolicyKind.FIXED))


def test_run_scenario_audit_mode_matches_plain(small_dataset):
    plain = run_scenario(_spec(small_dataset))
    audited = run_scenario(_spec(small_dataset), audit=True)
    assert plain.weekly_metrics == audited.weekly_metrics


def test_run_scenario_writes_week_traces(small_dataset, tmp_path):
    run_scenario(_spec(small_dataset, name="tr"), trace_dir=str(tmp_path))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["trace_tr_week1.csv", "trace_tr_week2.csv"]
    head = (tmp_path / "trace_tr_week1.csv").read_text().splitlines()
    assert head[0] == "time,seq,kind,payload"
    assert len(head) > 2


def test_scenarios_differ_across_policies(small_dataset):
    fixed = run_scenario(_spec(small_dataset, policy=PolicyKind.FIXED))
    rand = run_scenario(_spec(small_dataset, policy=PolicyKind.RANDOM))
    # same orders, different placement rules: some week must diverge
    assert fixed.weekly_metrics != rand.weekly_metrics


def test_tiny_horizon_raises_infeasible(small_dataset):
    cfg = SimConfig(horizon_s=10.0)
    with pytest.raises(InfeasibleRunError, match="orders"):
        run_scenario(_spec(small_dataset, cfg=cfg))


def test_weeks_beyond_the_data_are_an_input_error(small_dataset):
    with pytest.raises(InputDataError, match=r"week 3 has no orders: .* spans 2 week\(s\)"):
        run_scenario(_spec(small_dataset, weeks=3))


def test_run_week_refuses_a_week_without_orders():
    warehouse = Warehouse(anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1)], [make_item("A")])
    policy = StoragePolicy(PolicyKind.RANDOM, warehouse, SimConfig().stacker())
    with pytest.raises(InputDataError, match="^a week needs at least one order$"):
        run_week(warehouse, policy, [], PickingMode.AREA, SimConfig(), 1, date(2024, 6, 3))


def test_a_gap_week_is_an_input_error(tmp_path):
    generate_data(str(tmp_path), 21, n_items=8, n_slots=30, n_lines=90, weeks=3)
    orders = tmp_path / "orders.csv"
    header, *rows = orders.read_text().splitlines()
    orders.write_text("\n".join([header, *(r for r in rows if "-W2-" not in r)]) + "\n")
    with pytest.raises(InputDataError, match=r"week 2 has no orders: .* spans 3 week\(s\)"):
        run_scenario(_spec(str(tmp_path), weeks=3))


# -- the cyclic garbage collector ----------------------------------------


@pytest.fixture
def gc_state():
    """Put the collector's switch, debug flags and ``gc.garbage`` back as
    they were before the test."""
    enabled, flags, garbage = gc.isenabled(), gc.get_debug(), list(gc.garbage)
    yield
    gc.set_debug(flags)
    gc.garbage[:] = garbage
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_data")
    assert main(["gen-data", "--out", str(out)] + DATA_ARGS) == 0
    return str(out)


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_a_run_leaves_nothing_for_the_cyclic_collector(golden_dataset, tmp_path, gc_state,
                                                       policy, picking):
    """``run_scenario`` pauses the collector, so a reference cycle made by a
    run would stay in memory until the next collection; there is none."""
    spec = ScenarioSpec(name="cycles", policy=PolicyKind(policy),
                        allocation=AllocationRule.HOMOGENEOUS,
                        picking=PickingMode(picking), weeks=2, seed=7, config=SimConfig(),
                        data=DataPaths.from_dir(golden_dataset))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    for kwargs in ({"audit": True}, {"trace_dir": str(tmp_path)}):
        run_scenario(spec, **kwargs)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage).most_common(5)
        assert found == 0, f"{kwargs}: {found} unreachable objects, mostly {kinds}"


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["returns", "infeasible", "empty-week"])
def test_run_leaves_the_collector_as_the_caller_had_it(small_dataset, gc_state, monkeypatch,
                                                      enabled, outcome):
    loading = []
    load_layout = experiment.load_layout

    def spy(path):
        loading.append(gc.isenabled())
        return load_layout(path)

    monkeypatch.setattr(experiment, "load_layout", spy)
    spec, raised = {
        "returns": (_spec(small_dataset), None),
        "infeasible": (_spec(small_dataset, cfg=SimConfig(horizon_s=10.0)), InfeasibleRunError),
        "empty-week": (_spec(small_dataset, weeks=3), InputDataError),
    }[outcome]
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if raised is None:
        assert len(run_scenario(spec).weeks) == 2
    else:
        with pytest.raises(raised):
            run_scenario(spec)
    assert loading == [False], "the collector runs during the first CSV load"
    assert gc.isenabled() is enabled


def test_the_benchmark_set_up_probe_runs(golden_dataset, tmp_path):
    """``perfbench/setup_probe.py`` imports picksim's loaders and slot-map
    builder by name in a fresh interpreter; it must still run on them."""
    root = Path(__file__).resolve().parents[1]
    config = tmp_path / "config.json"
    config.write_text("{}")
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "setup_probe.py"), golden_dataset,
         str(config), "2", "homogeneous", "demand"],
        capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "setup_s" in json.loads(proc.stdout.splitlines()[-1])


# the callables perfbench/run.py derives a per-layer metric from; the
# three methods it also reads and that no longer exist are left out
LAYER_CALLS = (
    "storage.StoragePolicy.nearest_vacant", "storage.StoragePolicy.put_away",
    "replenishment.Replenisher.handle_rp", "warehouse.Warehouse.total_on_hand",
    "warehouse.Warehouse.pick", "picking.PickingSession.handle_spo",
    "picking.PickingSession.handle_pp", "picking.load_orders", "picking.prepare_orders",
    "storage.place_initial", "experiment.build_slot_map",
)


def test_the_benchmark_tracer_counts_every_layer(golden_dataset, tmp_path):
    """``perfbench/traced_cli.py`` wraps picksim's callables by name and counts
    the pallets replenishment places from ``put_away``'s return value; on a
    fixed-policy run that stalls, every layer it reports must be counted."""
    root = Path(__file__).resolve().parents[1]
    trace, out = tmp_path / "trace.json", tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(trace), "--",
         "simulate", "--data", golden_dataset, "--weeks", "2", "--policy", "fixed",
         "--out", str(out)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out / "results.csv", newline="") as fh:
        assert any(float(row["wait_s"]) > 0 for row in csv.DictReader(fh)), "no stall"
    record = json.loads(trace.read_text())
    calls: Counter = Counter()
    under_visit = 0
    for parent, name, count, *_ in record["aggregates"]:
        calls[name] += count
        if (parent, name) == ("replenishment.Replenisher.handle_rp",
                              "storage.StoragePolicy.put_away"):
            under_visit += count
    assert record["exit_code"] == 0
    assert record["counters"]["replenishment.placed"] == under_visit > 0
    assert record["counters"]["events.executed"] > 0
    assert [name for name in LAYER_CALLS if calls[name] <= 0] == []


# -- aggregation and serialization ---------------------------------------


SERIES = [("base", [100.0, 110.0]), ("alt", [90.0, 96.0])]


def _fake_results() -> list[RunResult]:
    mk = lambda w, m: WeekOutcome(w, m, ProcessTotals())
    return [
        RunResult("base", "minutes", [mk(1, 100.0), mk(2, 110.0)]),
        RunResult("alt", "minutes", [mk(1, 90.0), mk(2, 96.0)]),
    ]


def test_summarize_results_gap_is_relative_to_first():
    base, alt = summarize_results(SERIES)
    assert base.gap_pct == 0.0
    assert alt.gap_pct == pytest.approx(100 * (186 - 210) / 210)
    assert base.stats.mean == 105.0 and alt.total == 186.0
    with pytest.raises(InputDataError, match="nothing"):
        summarize_results([])


def test_results_csv_schema_and_float_fidelity(tmp_path):
    path = tmp_path / "r.csv"
    results = _fake_results()
    results[0].weeks[0].metric = 0.1 + 0.2  # not exactly 0.3
    write_results_csv(results, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("scenario,week,metric,walk_s,handle_s,wait_s,"
                        "put_travel_s,put_handle_s,turns")
    assert len(lines) == 5
    # repr round-trip keeps every bit of the float
    assert lines[1].split(",")[2] == "0.30000000000000004"


def test_results_csv_makes_its_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "results.csv"
    write_results_csv(_fake_results(), str(path))
    assert path.read_text().startswith("scenario,week,metric,")


def test_summary_and_paired_csv_formats(tmp_path):
    summaries = summarize_results(SERIES)
    spath, ppath = tmp_path / "s.csv", tmp_path / "p.csv"
    write_summary_csv(summaries, str(spath))
    slines = spath.read_text().splitlines()
    assert slines[0] == "scenario,mean,ci_low,ci_high,total,gap_pct"
    assert slines[1].startswith("base,105.00,")
    assert re.fullmatch(r"alt(,-?\d+\.\d{2}){5}", slines[2])

    from picksim import paired_test
    write_paired_csv(paired_test([100.0, 110.0], [90.0, 96.0]), str(ppath))
    plines = ppath.read_text().splitlines()
    assert plines[0] == "statistic,df,p_value"
    assert re.fullmatch(r"-?\d+\.\d{4},1,\d\.\d{4}", plines[1])


def test_compare_scenarios_runs_both_and_pairs(small_dataset):
    cmp_ = compare_scenarios(
        _spec(small_dataset, name="homog", allocation=AllocationRule.HOMOGENEOUS),
        _spec(small_dataset, name="demand", allocation=AllocationRule.DEMAND_BASED),
    )
    assert [r.scenario for r in cmp_.results] == ["homog", "demand"]
    assert cmp_.summaries[0].gap_pct == 0.0
    assert cmp_.paired is not None and cmp_.paired.df == 1


@pytest.mark.parametrize("weeks", [(1, 2), (2, 1)], ids=["base", "other"])
def test_compare_scenarios_of_one_week_refused_before_reading_data(tmp_path, weeks):
    # the data directory does not exist: reading any file would raise ParseError
    missing = str(tmp_path / "missing")
    with pytest.raises(InputDataError, match="needs at least 2 weeks .* got 1"):
        compare_scenarios(_spec(missing, name="a", weeks=weeks[0]),
                          _spec(missing, name="b", weeks=weeks[1]))
