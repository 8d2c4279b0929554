"""Scenario runner: seeds, week bucketing, determinism, CSV schemas."""

from __future__ import annotations

import copy
import csv
import gc
import hashlib
import json
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from datetime import date, datetime, timedelta, timezone
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
    PickingSession,
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
    index_layout,
    run_scenario,
    run_week,
    summarize_results,
    write_paired_csv,
    write_results_csv,
    write_summary_csv,
)
from picksim import experiment
from picksim.experiment import _spanned_weeks
from picksim.stats import total
from picksim.config import config_from_dict
from picksim.datagen import generate_data
from picksim.warehouse import ProcessTotals, _check_new
from conftest import anchors, child_env, make_item, slot
from runners import engine_run


def _order(no: str, day: int, hour: int = 9, items=(("A", 1),)) -> Order:
    lines = [OrderLine(code, qty) for code, qty in items]
    return Order(no, datetime(2024, 6, 3 + day, hour), "T1", lines)


# -- seed derivation ------------------------------------------------------


def test_derive_seed_frozen_values():
    assert derive_seed(12345, "x", 1) == 8595327217680237409
    assert derive_seed(12345, "x", 2) == 14158318454559125633
    assert derive_seed(12345, "y", 1) == 15277934249497396960
    assert derive_seed(99, "x", 1) == 2357815595800428762


@pytest.mark.parametrize("master, scenario, week", [
    (12345, "x", 1), (0, "S1-homogeneous", 4), (-7, "S2-demand", 2),
    (2 ** 70, "fixed-homogeneous-area", 52), (-1, "Lager-Süd ✓", 3), (42, "", 0),
])
def test_derive_seed_is_the_head_of_a_sha256(master, scenario, week):
    digest = hashlib.sha256(f"{master}|{scenario}|{week}".encode()).digest()
    assert derive_seed(master, scenario, week) == int.from_bytes(digest[:8], "big")


def test_derive_seed_varies_on_every_component():
    seeds = {derive_seed(m, s, w)
             for m in (1, 2) for s in ("a", "b") for w in (1, 2)}
    assert len(seeds) == 8  # no collisions across the grid


# -- order bucketing ------------------------------------------------------


def test_spanned_weeks_bucket_by_calendar_week():
    orders = [_order("O1", 0), _order("O2", 3), _order("O3", 7),
              _order("O4", 13), _order("O5", 27)]
    spanned = _spanned_weeks(orders)
    assert [[o.order_no for o in b] for b, _ in spanned] == [["O1", "O2"], ["O3", "O4"],
                                                             [], ["O5"]]
    # a week without orders has no first date
    assert [first for _, first in spanned] == [date(2024, 6, 3), date(2024, 6, 10),
                                               None, date(2024, 6, 30)]
    assert _spanned_weeks([]) == []


def test_spanned_weeks_keep_file_order_within_bucket():
    orders = [_order("B", 1, hour=17), _order("A", 1, hour=9)]
    [(bucket, _)] = _spanned_weeks(orders)
    assert [o.order_no for o in bucket] == ["B", "A"]  # not re-sorted by time


def test_spanned_weeks_count_offset_orders_from_the_first_local_date():
    """The earliest instant, ``O2``, falls on a later local date than ``O1``;
    both are in week 1."""
    orders = [Order("O1", datetime(2024, 6, 2, 23, tzinfo=timezone.utc), "T1",
                    [OrderLine("A", 1)]),
              Order("O2", datetime(2024, 6, 3, 0, 30, tzinfo=timezone(timedelta(hours=2))),
                    "T2", [OrderLine("A", 1)])]
    assert [([o.order_no for o in b], first) for b, first in _spanned_weeks(orders)] == [
        (["O1", "O2"], date(2024, 6, 2))]


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


@pytest.fixture(scope="module")
def stuck_dataset(small_dataset, tmp_path_factory):
    """``small_dataset`` with every second initial pallet, from the first,
    given to the most-ordered item (its pieces cut to that item's pallet
    size).  Under fixed storage and homogeneous allocation the fallback
    fills another item's slots, so week 1 gets stuck."""
    src = Path(small_dataset)
    out = tmp_path_factory.mktemp("stuck")
    for name in ("layout.csv", "items.csv", "orders.csv"):
        (out / name).write_bytes((src / name).read_bytes())
    with open(src / "items.csv", newline="") as fh:
        per_pallet = {row["item_code"]: int(row["qty_per_pallet"]) for row in csv.DictReader(fh)}
    with open(src / "orders.csv", newline="") as fh:
        lines = Counter(row["item_code"] for row in csv.DictReader(fh))
    code = min(lines, key=lambda item: (-lines[item], item))
    with open(src / "initial_inventory.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    for row in rows[::2]:
        row[3:5] = [code, str(min(int(row[4]), per_pallet[code]))]
    with open(out / "initial_inventory.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
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


def test_each_layout_row_is_checked_once_per_run(small_dataset, monkeypatch):
    """A run checks its layout once, as ``load_layout`` reads it, under each
    policy."""
    rows = len(Path(small_dataset, "layout.csv").read_text().splitlines()) - 1
    checked = []
    monkeypatch.setattr("picksim.warehouse._check_new",
                        lambda loc, *rest: checked.append(loc) or _check_new(loc, *rest))
    for policy in PolicyKind:
        checked.clear()
        run_scenario(_spec(small_dataset, policy=policy))
        assert len(checked) == rows, policy


def test_run_scenario_audit_mode_matches_plain(small_dataset):
    plain = run_scenario(_spec(small_dataset))
    audited = run_scenario(_spec(small_dataset), audit=True)
    assert plain.weekly_metrics == audited.weekly_metrics


def test_the_audit_of_a_run_catches_a_leak_in_the_middle_of_a_week(small_dataset, monkeypatch):
    """A picker that adds one phantom piece to a pallet after its first
    order's picks breaks conservation mid-week: the audited run raises at
    the next event, and the same run without the audit finishes."""
    start = PickingSession.handle_spo
    leaked = []

    def leaking(self, sim, event):
        successor = start(self, sim, event)
        if not leaked and self.warehouse.records:
            record = next(iter(self.warehouse.records.values()))
            record.qty += 1
            leaked.append(record)
        return successor

    monkeypatch.setattr(PickingSession, "handle_spo", leaking)
    spec = _spec(small_dataset, weeks=1)
    with pytest.raises(AssertionError, match="conservation broken for"):
        run_scenario(spec, audit=True)
    assert len(leaked) == 1
    leaked.clear()
    assert len(run_scenario(spec).weeks) == 1
    assert len(leaked) == 1


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


def test_weeks_beyond_the_data_are_an_input_error(small_dataset):
    with pytest.raises(InputDataError, match=r"week 3 has no orders: .* spans 2 week\(s\)"):
        run_scenario(_spec(small_dataset, weeks=3))


def test_run_week_twice_on_the_same_orders_gives_identical_totals():
    """A week keeps what is left to pick in its plan, not in the order
    records, so a second run over the same records repeats the first."""
    layout = anchors() + [slot(0, 1, s, 100.0, 100.0 + 150.0 * s, seq=s) for s in range(3)]
    items = [make_item("A", qpp=10), make_item("B", qpp=10)]
    orders = [_order("O1", 0, items=(("A", 4), ("B", 12))), _order("O2", 0, items=(("A", 9),))]
    cfg = config_from_dict({"replenish": {"mu_s": 120.0}})
    runs = []
    for _ in range(2):
        warehouse = Warehouse(index_layout(layout), items)
        policy = StoragePolicy(PolicyKind.RANDOM, warehouse, cfg.stacker())
        warehouse.place(layout[3].id, "A", 10, date(2024, 5, 1))
        warehouse.place(layout[4].id, "B", 10, date(2024, 5, 1))
        trace = []
        session, _ = run_week(warehouse, policy, orders, PickingMode.AREA, cfg, 1,
                              date(2024, 6, 3), trace=trace)
        runs.append((session.completions, session.metrics, len(trace)))
    assert runs[0][1].wait_s > 0, "the week should stall, so that a resume event runs"
    assert runs[1] == runs[0]


def _peak_of_an_untraced_week(sps: float) -> tuple[float, int]:
    """The clock at the end of a week of two orders on one slot, visited
    every second, at stacker speed ``sps``, and the peak of the memory
    ``tracemalloc`` saw allocated while it ran."""
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1)]
    cfg = config_from_dict({"sps": sps, "replenish": {"mu_s": 1.0}})
    tracemalloc.start()
    try:
        _, _, _, engine = engine_run(layout, [make_item("A")],
                                     [((0, 1, 0), "A", 10, date(2024, 5, 1))], "random", None,
                                     [("O1", "T", [("A", 2)]), ("O2", "T", [("A", 2)])], "area",
                                     cfg, 1, date(2024, 6, 3))
        return engine.now, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_untraced_week_holds_none_of_its_events():
    """The second order starts when the first is walked, and a visit comes
    every second until then: one event per simulated second.  A week of
    over 10**5 events peaks within 1 MB of one of about 10**3; a week that
    kept its events would hold some 145 bytes for each."""
    short_s, short_peak = _peak_of_an_untraced_week(0.4)
    long_s, long_peak = _peak_of_an_untraced_week(0.0033)
    assert 500 < short_s < 2_000 and long_s > 100_000
    assert long_peak - short_peak < 1_000_000


def test_run_week_refuses_a_week_without_orders():
    warehouse = Warehouse(index_layout(anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1)]),
                          [make_item("A")])
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
    for kwargs in ({"audit": True}, {"trace_dir": str(tmp_path)},
                   {"audit": True, "trace_dir": str(tmp_path)}):
        run_scenario(spec, **kwargs)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage).most_common(5)
        assert found == 0, f"{kwargs}: {found} unreachable objects, mostly {kinds}"


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["returns", "infeasible", "empty-week"])
def test_run_leaves_the_collector_as_the_caller_had_it(small_dataset, stuck_dataset, gc_state,
                                                      monkeypatch, enabled, outcome):
    loading = []
    load_layout = experiment.load_layout

    def spy(path):
        loading.append(gc.isenabled())
        return load_layout(path)

    monkeypatch.setattr(experiment, "load_layout", spy)
    spec, raised = {
        "returns": (_spec(small_dataset), None),
        "infeasible": (_spec(stuck_dataset, policy=PolicyKind.FIXED,
                             allocation=AllocationRule.HOMOGENEOUS), InfeasibleRunError),
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


# the second run has the settings of the benchmark's fixed-zoning-dist-full
# workload: fixed storage, zoning picking, sampled visits; in the third,
# visits come every 1 s, the floor of every interval, so the picker stalls
# but never waits, and most visits place nothing
TRACED_RUNS = {
    "fixed-area-default": ([], None),
    "fixed-zoning-sampled": (["--picking", "zoning"], {"replenish": {"mode": "sampled"}}),
    "fixed-area-skipping": ([], {"replenish": {"mu_s": 1.0}}),
}


# the accounting problems perfbench/run.py finds in a trace (argv: the
# perfbench directory, the trace file, the traced run's wall seconds)
_LAYER_PROBLEMS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from run import layer_metrics
with open(sys.argv[2], encoding="utf-8") as fh:
    print(json.dumps(layer_metrics(json.load(fh), float(sys.argv[3]))[1]))
"""


@pytest.mark.parametrize("run", sorted(TRACED_RUNS))
def test_the_benchmark_tracer_counts_every_layer(golden_dataset, tmp_path, run):
    """``perfbench/traced_cli.py`` wraps picksim's callables by name and counts
    the pallets replenishment places from ``put_away``'s return value; on a
    fixed-policy run that stalls, every layer it reports must be counted, the
    pallets it counts must be the ones ``results.csv`` books, and the
    benchmark's own accounting (``layer_metrics`` in ``perfbench/run.py``)
    must find every traced call in a reported module and self times that add
    up.  Only the skipping run handles a visit that places nothing, and only
    there the picker never waits."""
    root = Path(__file__).resolve().parents[1]
    trace, out = tmp_path / "trace.json", tmp_path / "out"
    flags, config = TRACED_RUNS[run]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        flags = [*flags, "--config", str(tmp_path / "config.json")]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(trace), "--",
         "simulate", "--data", golden_dataset, "--weeks", "2", "--policy", "fixed",
         *flags, "--out", str(out)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=120)
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    with open(out / "results.csv", newline="") as fh:
        weeks = list(csv.DictReader(fh))
    skipping = run == "fixed-area-skipping"
    assert any(float(row["wait_s"]) > 0 for row in weeks) != skipping, "wait_s"
    # each placed pallet books one put-away's handling
    defaults = SimConfig()
    booked = sum(float(row["put_handle_s"]) for row in weeks) / (defaults.BTpa + defaults.PPpa)
    record = json.loads(trace.read_text())
    calls: Counter = Counter()
    under_visit = 0
    for parent, name, count, *_ in record["aggregates"]:
        calls[name] += count
        if (parent, name) == ("replenishment.Replenisher.handle_rp",
                              "storage.StoragePolicy.put_away"):
            under_visit += count
    assert record["exit_code"] == 0
    placed = record["counters"]["replenishment.placed"]
    assert placed == booked > 0
    assert (under_visit > placed) == skipping
    assert record["counters"]["events.executed"] > 0
    assert [name for name in LAYER_CALLS if calls[name] <= 0] == []
    proc = subprocess.run(
        [sys.executable, "-c", _LAYER_PROBLEMS, str(root / "perfbench"), str(trace), repr(wall)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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


def test_a_results_total_is_the_total_of_its_weekly_metrics():
    """``RunResult.total`` and the summaries share one code path: a float sum
    that overflows midway is rounded once from the exact sum, and a total
    out of float range is refused."""
    mk = lambda w, m: WeekOutcome(w, m, ProcessTotals())
    for metrics in ([100.0, 110.0], [0.1, 0.2, 0.3], [1e308, 1e308, -1e308]):
        result = RunResult("r", "minutes", [mk(w, m) for w, m in enumerate(metrics, start=1)])
        assert result.total == total(metrics)
    assert result.total == 1e308
    with pytest.raises(InputDataError, match="out of float range"):
        RunResult("r", "minutes", [mk(1, 1e308), mk(2, 1e308)]).total


def test_results_csv_schema_and_float_fidelity(tmp_path):
    path = tmp_path / "r.csv"
    results = _fake_results()
    results[0].weeks[0] = results[0].weeks[0]._replace(metric=0.1 + 0.2)  # not exactly 0.3
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


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_compare_loads_its_dataset_once_with_the_collector_paused(small_dataset, gc_state,
                                                                 monkeypatch, enabled):
    """Both scenarios read one load of the data; the collector stays paused
    from that load to the end of the last week and is left as it was."""
    loading, weeks = [], []
    load_layout, week = experiment.load_layout, experiment.run_week

    def spy_load(path):
        loading.append(gc.isenabled())
        return load_layout(path)

    def spy_week(*args):
        weeks.append(gc.isenabled())
        return week(*args)

    monkeypatch.setattr(experiment, "load_layout", spy_load)
    monkeypatch.setattr(experiment, "run_week", spy_week)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    specs = [_spec(small_dataset, name=rule.value, policy=PolicyKind.FIXED, allocation=rule)
             for rule in (AllocationRule.HOMOGENEOUS, AllocationRule.DEMAND_BASED)]
    cmp_ = compare_scenarios(*specs)
    assert loading == [False] and weeks == [False] * 4
    assert gc.isenabled() is enabled
    assert [r.weeks for r in cmp_.results] == [run_scenario(spec).weeks for spec in specs]


def test_compare_leaves_its_order_records_as_they_were(small_dataset, monkeypatch):
    """Both scenarios plan the order records of one load; what is left to
    pick lives in each week's plan, so the records end as they were read."""
    loaded = []
    load_orders = experiment.load_orders

    def spy_load(*args):
        orders = load_orders(*args)
        loaded.append((orders, copy.deepcopy(orders)))
        return orders

    monkeypatch.setattr(experiment, "load_orders", spy_load)
    compare_scenarios(_spec(small_dataset, name="a", policy=PolicyKind.FIXED),
                      _spec(small_dataset, name="b", policy=PolicyKind.RANDOM))
    [(orders, as_read)] = loaded
    assert orders == as_read


def test_compare_loads_each_distinct_dataset(small_dataset, golden_dataset, monkeypatch):
    loaded = []
    load_layout = experiment.load_layout
    monkeypatch.setattr(experiment, "load_layout",
                        lambda path: loaded.append(path) or load_layout(path))
    compare_scenarios(_spec(small_dataset, name="a"), _spec(golden_dataset, name="b"))
    compare_scenarios(_spec(small_dataset, name="a"), _spec(small_dataset, name="b"))
    assert loaded == [DataPaths.from_dir(small_dataset).layout,
                      DataPaths.from_dir(golden_dataset).layout,
                      DataPaths.from_dir(small_dataset).layout]


@pytest.mark.parametrize("weeks", [(1, 2), (2, 1)], ids=["base", "other"])
def test_compare_scenarios_of_one_week_refused_before_reading_data(tmp_path, weeks):
    # the data directory does not exist: reading any file would raise ParseError
    missing = str(tmp_path / "missing")
    with pytest.raises(InputDataError, match="needs at least 2 weeks .* got 1"):
        compare_scenarios(_spec(missing, name="a", weeks=weeks[0]),
                          _spec(missing, name="b", weeks=weeks[1]))
