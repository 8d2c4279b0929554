"""picksim benchmark: whole CLI runs, one fresh process at a time.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--heldout-seed M]
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a picksim checkout; the program is taken from
``src/`` of that checkout.  The workload seed (default 12345) gives the
seeds of ``DATASETS`` generated datasets; a dataset's seed is also the
CLI's master ``--seed`` on it.

One run of a workload:

1. generates the datasets with ``generate_data``, each in a child
   process (recording ``datagen.generate_s`` and each file's SHA-256);
2. runs the workload's CLI command in a fresh interpreter, again and
   again, one at a time (a closed loop with one caller), cycling through
   the datasets, for ``--seconds`` seconds; a run that would end past the
   window is not started, but the first on each dataset always is;
3. with ``--trace 0``, times picksim's set-up (``setup_probe.py``) in a
   fresh interpreter after every CLI run;
4. with ``--trace 1``, runs the command twice more on the first dataset
   under the tracer (``traced_cli.py``) and derives the per-module
   metrics.

Times are CPU seconds scaled by the slowdown that calibration bursts
measure while each child runs (see ``spawn``).

Every CLI run is checked: it must exit 0, its CSV outputs must be
well-formed and agree with what it printed, and their SHA-256 hashes must
equal those of the first run on the same dataset (the traced runs
included).  A run that fails any check counts in ``failed``.

The last line printed is the result as one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units come from ``BENCHMARK.json`` at the checkout root.  The full
record (samples, output hashes, provenance, the held-out seed run) is
written to ``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import ROOT as ROOT_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MANIFEST = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 12345
# Datasets generated per workload seed.  The CLI's work on one dataset
# differs by about 9% (coefficient of variation) between seeds, so a
# benchmark run measures a round over several and reports the mean.
DATASETS = 3
# every child is killed once the run has lasted this long
DEADLINE_S = 170.0

CLI_CODE = "import sys; from picksim.cli import main; sys.exit(main())"
GEN_CODE = (
    "import json, sys, time\n"
    "from picksim.datagen import generate_data\n"
    "t = time.perf_counter()\n"
    "generate_data(sys.argv[1], *map(int, sys.argv[2:]))\n"
    "print(json.dumps({'generate_s': time.perf_counter() - t}))\n"
)


@dataclass(frozen=True)
class Scale:
    """``generate_data`` arguments after the seed."""

    items: int
    slots: int
    lines: int
    weeks: int


FULL = Scale(items=153, slots=1149, lines=28129, weeks=4)
# the full-scale building with one week of its orders (28,129 / 4 lines)
FULL_WEEK = Scale(items=153, slots=1149, lines=7032, weeks=1)
DEMO = Scale(items=25, slots=120, lines=600, weeks=4)


@dataclass(frozen=True)
class Workload:
    name: str
    scale: Scale
    command: tuple[str, ...]
    config: dict | None = None
    allocations: tuple[str, ...] = ("homogeneous",)

    @property
    def scenarios(self) -> int:
        return len(self.allocations)


# Why each workload exists is in perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("random-area-1week", FULL_WEEK,
             ("simulate", "--policy", "random", "--picking", "area")),
    Workload("fixed-zoning-dist-full", FULL,
             ("simulate", "--policy", "fixed", "--picking", "zoning"),
             config={"walking": {"mode": "distance"}, "replenish": {"mode": "sampled"}}),
    Workload("demo-compare", DEMO, ("compare",), allocations=("homogeneous", "demand")),
)}

# Modules whose summed self time the traced run reports as <module>.self_s.
MODULES = ("storage", "replenishment", "warehouse", "picking", "events", "allocation",
           "experiment", "stats", "cli", "config")
STATS_CALLS = ("experiment.summarize_results", "stats.summarize", "stats.paired_test")
WRITE_CALLS = ("experiment.write_results_csv", "experiment.write_summary_csv",
               "experiment.write_paired_csv")
LOAD_CALLS = ("warehouse.load_layout", "warehouse.load_items", "warehouse.load_inventory")


class HarnessError(Exception):
    """The benchmark itself cannot run (missing program, broken set-up)."""


@dataclass
class Exec:
    """One child process run to completion."""

    wall_s: float
    cpu_s: float  # user + system, of the child and the children it waited for
    rss_mb: float
    exit_code: int
    slowdown: float  # mean calibration burst during the run / CAL_REF_S
    hashes: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def scaled_cpu_s(self) -> float:
        """CPU seconds scaled to the speed of an idle core."""
        return self.cpu_s / self.slowdown


# -- host contention -------------------------------------------------------

# On a shared host the core this benchmark runs on is slowed, by a factor
# that drifts between 1 and 2 over seconds to minutes, when other tenants
# run on its sibling hyperthread or contend for the shared cache.  The
# guest sees no steal time for this, and CPU time grows with it.  So while
# a child runs, the harness, pinned to the child's CPU, runs a short burst
# of fixed work every CAL_PERIOD_S and times it; the mean burst over the
# run, divided by CAL_REF_S, is the run's slowdown.
CAL_PERIOD_S = 0.05
# About the CPU seconds of one burst run back to back with others on the
# machine this was tuned on (Intel Xeon, 2.1 GHz, Python 3.11).  It is a
# constant: it fixes the unit of scaled time.
CAL_REF_S = 0.003
# The burst's second half reads at random from a table far larger than
# the core's own caches, so that it feels contention for the shared cache
# and memory as the program does, not only for the core.
_TABLE = [str(i) for i in range(1 << 19)]


def burst() -> float:
    """CPU seconds this thread takes for a fixed piece of work."""
    start = time.thread_time()
    counts: dict = {}
    total = 0
    for i in range(5_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    j = 1
    mask = len(_TABLE) - 1
    for i in range(3_000):
        j = (j * 1103515245 + 12345) & mask
        counts[_TABLE[j]] = i
    return time.thread_time() - start


def pin_to_one_cpu() -> None:
    """Run this thread, and every child started from it, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- child processes -------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PICKSIM_SEED", None)
    return env


def spawn(argv: list[str], log_dir: Path, deadline: float) -> Exec:
    """Run ``argv`` to completion, timing calibration bursts while it runs.

    stdout and stderr go to files in ``log_dir``.  The child is killed if
    it is still running at ``deadline`` (a ``time.monotonic`` value), or
    if this process is interrupted.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    ended: list[tuple[int, os.struct_rusage, float]] = []

    def reap() -> None:
        # wait4 rather than Popen.wait: it also returns the child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        ended.append((status, usage, time.perf_counter()))

    bursts: list[float] = []
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            while waiter.is_alive():
                if time.monotonic() > deadline:
                    proc.kill()
                waiter.join(CAL_PERIOD_S)
                if waiter.is_alive():
                    bursts.append(burst())
        except BaseException:
            proc.kill()
            waiter.join()
            raise
    status, usage, end = ended[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not bursts:  # the child ended within one period
        bursts.append(burst())
    return Exec(end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, statistics.fmean(bursts) / CAL_REF_S)


def run_json_child(argv: list[str], log_dir: Path, deadline: float) -> tuple[dict, Exec]:
    """Run a helper child that prints one JSON object; raise if it fails."""
    ex = spawn(argv, log_dir, deadline)
    stdout = (log_dir / "stdout.txt").read_text(encoding="utf-8").strip()
    if ex.exit_code != 0 or not stdout:
        stderr = (log_dir / "stderr.txt").read_text(encoding="utf-8").strip()
        raise HarnessError(f"{log_dir.name} exited {ex.exit_code}: {stderr[-500:]}")
    return json.loads(stdout.splitlines()[-1]), ex


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_dir(directory: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(directory.iterdir()) if p.is_file()}


# -- one workload ----------------------------------------------------------


@dataclass
class Prepared:
    workload: Workload
    seed: int
    data: Path
    config: Path
    generate_s: float
    data_hashes: dict[str, str]
    lines: int

    def cli_args(self, out_dir: Path) -> list[str]:
        args = [*self.workload.command, "--weeks", str(self.workload.scale.weeks),
                "--data", str(self.data), "--seed", str(self.seed), "--out", str(out_dir)]
        if self.workload.config is not None:
            args += ["--config", str(self.config)]
        return args


def dataset_seeds(seed: int) -> list[int]:
    """Seeds of the datasets of workload seed ``seed``; no two workload seeds share one."""
    return [seed * DATASETS + k for k in range(DATASETS)]


def prepare(workload: Workload, seed: int, run_dir: Path, deadline: float) -> Prepared:
    """Generate one dataset of the workload, and its config file, under ``run_dir``.

    ``seed`` is both the data seed and the CLI's master seed.
    """
    data = run_dir / f"data{seed}"
    s = workload.scale
    gen, _ = run_json_child(
        [sys.executable, "-c", GEN_CODE, str(data), str(seed),
         str(s.items), str(s.slots), str(s.lines), str(s.weeks)],
        run_dir / "logs" / f"datagen{seed}", deadline)
    config = run_dir / "config.json"
    config.write_text(json.dumps(workload.config or {}), encoding="utf-8")
    with open(data / "orders.csv", encoding="utf-8", newline="") as fh:
        # generate_data dates every line inside its horizon
        lines = sum(1 for _ in fh) - 1
    return Prepared(workload, seed, data, config, gen["generate_s"], hash_dir(data), lines)


def setup_time(prep: Prepared, run_dir: Path, tag: str, deadline: float) -> dict[str, float]:
    """Time picksim's set-up on ``prep``'s dataset in a fresh interpreter.

    Returns what ``setup_probe.py`` printed plus the probe's slowdown.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(prep.data), str(prep.config),
            str(prep.workload.scale.weeks), *prep.workload.allocations]
    sample, ex = run_json_child(argv, run_dir / "logs" / tag, deadline)
    return {**sample, "slowdown": ex.slowdown}


def check_outputs(workload: Workload, out_dir: Path, stdout: str) -> list[str]:
    """Structural and cross-channel checks of one run's CSV outputs."""
    problems: list[str] = []
    weeks = workload.scale.weeks
    try:
        results = _read_csv(out_dir / "results.csv")
        # the CLI writes no summary for a single week
        summary = _read_csv(out_dir / "summary.csv") if weeks >= 2 else None
    except OSError as exc:
        return [f"missing output: {exc}"]
    if results[0][:3] != ["scenario", "week", "metric"]:
        return [f"results.csv header {results[0][:3]}"]
    by_scenario: dict[str, list[tuple[int, float]]] = {}
    for row in results[1:]:
        by_scenario.setdefault(row[0], []).append((int(row[1]), float(row[2])))
    if len(by_scenario) != workload.scenarios:
        problems.append(f"results.csv has {len(by_scenario)} scenarios, "
                        f"expected {workload.scenarios}")
    printed = re.findall(r"^  week (\d+): (\S+)$", stdout, re.MULTILINE)
    expected_print = []
    for name, rows in by_scenario.items():
        if [w for w, _ in rows] != list(range(1, weeks + 1)):
            problems.append(f"{name}: weeks {[w for w, _ in rows]}")
        metrics = [m for _, m in rows]
        if not all(math.isfinite(m) and m > 0 for m in metrics):
            problems.append(f"{name}: non-positive or non-finite weekly metric")
        expected_print += [(str(w), f"{m:.2f}") for w, m in rows]
        if summary is None:
            continue
        srow = next((r for r in summary[1:] if r[0] == name), None)
        if srow is None:
            problems.append(f"summary.csv lacks {name}")
            continue
        mean, lo, hi, total = (float(v) for v in srow[1:5])
        if abs(mean - statistics.fmean(metrics)) > 0.0051 or abs(total - sum(metrics)) > 0.0051:
            problems.append(f"summary.csv mean/total of {name} disagree with results.csv")
        if not lo <= mean <= hi:
            problems.append(f"summary.csv CI of {name} does not contain the mean")
    if printed != expected_print:
        problems.append("printed weekly metrics disagree with results.csv")
    if workload.command[0] == "compare":
        try:
            paired = _read_csv(out_dir / "paired.csv")
        except OSError as exc:
            return problems + [f"missing output: {exc}"]
        if paired[0] != ["statistic", "df", "p_value"] or int(paired[1][1]) != weeks - 1 \
                or not 0.0 <= float(paired[1][2]) <= 1.0:
            problems.append(f"paired.csv malformed: {paired}")
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def run_cli(prep: Prepared, run_dir: Path, tag: str, deadline: float,
            trace_path: Path | None = None) -> Exec:
    out_dir = run_dir / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    log_dir = run_dir / "logs" / tag
    if trace_path is None:
        argv = [sys.executable, "-c", CLI_CODE]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), "--"]
    ex = spawn(argv + prep.cli_args(out_dir), log_dir, deadline)
    if ex.exit_code != 0:
        stderr = (log_dir / "stderr.txt").read_text(encoding="utf-8").strip()
        ex.problems.append(f"exit code {ex.exit_code}: {stderr[-300:]}")
        return ex
    ex.hashes = hash_dir(out_dir)
    stdout = (log_dir / "stdout.txt").read_text(encoding="utf-8")
    try:
        ex.problems += check_outputs(prep.workload, out_dir, stdout)
    except (ValueError, IndexError) as exc:
        ex.problems.append(f"unreadable output: {exc!r}")
    return ex


def timed_loop(preps: list[Prepared], run_dir: Path, seconds: float, deadline: float,
               with_setup: bool) -> tuple[list[list[Exec]], list[dict[str, float]]]:
    """Closed loop of untraced CLI runs filling a ``seconds`` window.

    The runs cycle through the datasets in order.  A run that would end
    past the window is not started, but the first of each dataset always
    is.  With ``with_setup``, a set-up probe follows every CLI run, so the
    set-up samples span the window as the runs do.  Returns the runs of
    each dataset and the set-up samples.
    """
    runs: list[list[Exec]] = [[] for _ in preps]
    setup: list[dict[str, float]] = []
    start = time.perf_counter()
    n = 0
    while True:
        run_start = time.perf_counter()
        k = n % len(preps)
        tag = f"run{n}-{preps[k].seed}"
        ex = run_cli(preps[k], run_dir, tag, deadline)
        runs[k].append(ex)
        n += 1
        if ex.exit_code < 0:  # killed at the deadline
            break
        if with_setup:
            setup.append(setup_time(preps[k], run_dir, f"setup-{tag}", deadline))
        now = time.perf_counter()
        if n >= len(preps) and (now - start) + (now - run_start) > seconds:
            break
    for dataset in runs:
        for ex in dataset[1:]:
            if ex.hashes and ex.hashes != dataset[0].hashes:
                ex.problems.append("output hashes differ from the first run")
    return runs, setup


# -- traced metrics --------------------------------------------------------


def layer_metrics(trace: dict, traced_wall: float) -> tuple[dict[str, float], list[str]]:
    """Per-module metrics of one traced run, plus accounting problems."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    outer: dict[str, float] = {}  # time of calls not nested in another STATS_CALLS
    top = 0.0
    for parent, name, n, dur, self_s in trace["aggregates"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + self_s
        if parent not in STATS_CALLS:
            outer[name] = outer.get(name, 0.0) + dur
        if parent == ROOT_SPAN:
            top += dur
    problems = []
    module_self = {m: 0.0 for m in MODULES}
    for name, value in own.items():
        module = name.split(".")[0]
        if module not in module_self:
            problems.append(f"traced call {name} belongs to no reported module")
            continue
        module_self[module] += value
    self_sum = sum(own.values())
    if abs(self_sum - top) > 1e-6 * max(1.0, top):
        problems.append(f"self times sum to {self_sum!r} s but top-level spans to {top!r} s")
    unattributed = traced_wall - self_sum
    if unattributed < 0:
        problems.append(f"traced spans cover {self_sum!r} s, more than the run's wall time")

    counters = trace["counters"]
    rp_calls = calls.get("replenishment.Replenisher.handle_rp", 0)
    placed = counters.get("replenishment.placed", 0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    m: dict[str, float] = {
        "storage.nearest_vacant.calls": c("storage.StoragePolicy.nearest_vacant"),
        "storage.nearest_vacant.s": t("storage.StoragePolicy.nearest_vacant"),
        "storage.has_vacancy.calls": c("storage.StoragePolicy.has_vacancy"),
        "storage.has_vacancy.s": t("storage.StoragePolicy.has_vacancy"),
        "storage.put_away.calls": c("storage.StoragePolicy.put_away"),
        "storage.put_away.s": t("storage.StoragePolicy.put_away"),
        "storage.place_initial_s": t("storage.place_initial"),
        "storage.place_initial.fallbacks": counters.get("storage.place_initial.fallbacks", 0),
        "storage.on_slot_freed.calls": c("storage.StoragePolicy.on_slot_freed"),
        "replenishment.handle_rp.calls": rp_calls,
        "replenishment.handle_rp.self_s": own.get("replenishment.Replenisher.handle_rp", 0.0),
        "replenishment.placed": placed,
        "replenishment.placed_ratio": placed / rp_calls if rp_calls else 0.0,
        "warehouse.load_s": sum(t(n) for n in LOAD_CALLS),
        "warehouse.total_on_hand.calls": c("warehouse.Warehouse.total_on_hand"),
        "warehouse.total_on_hand.s": t("warehouse.Warehouse.total_on_hand"),
        "warehouse.pick.calls": c("warehouse.Warehouse.pick"),
        "warehouse.pick.s": t("warehouse.Warehouse.pick"),
        "picking.load_orders_s": t("picking.load_orders"),
        "picking.prepare_orders_s": t("picking.prepare_orders"),
        "picking.handle_spo.calls": c("picking.PickingSession.handle_spo"),
        "picking.handle_spo.self_s": own.get("picking.PickingSession.handle_spo", 0.0),
        "picking.handle_pp.calls": c("picking.PickingSession.handle_pp"),
        "picking.handle_pp.self_s": own.get("picking.PickingSession.handle_pp", 0.0),
        "picking.all_complete.calls": c("picking.PickingSession.all_complete"),
        "picking.all_complete.s": t("picking.PickingSession.all_complete"),
        "events.executed": counters.get("events.executed", 0),
        "allocation.slot_map_s": t("experiment.build_slot_map"),
        "experiment.slowest_week_s": slowest_week(trace["spans"]),
        "experiment.write_s": sum(t(n) for n in WRITE_CALLS),
        "stats.s": sum(outer.get(n, 0.0) for n in STATS_CALLS),
        "cli.import_s": t("cli.import"),
        "unattributed_s": unattributed,
        "traced_wall_s": traced_wall,
    }
    m.update({f"{mod}.self_s": v for mod, v in module_self.items()})
    return m, problems


def slowest_week(spans: list) -> float:
    """Longest span from a week's ``place_initial`` to the end of its ``Engine.run``."""
    week_start = None
    longest = 0.0
    for _, name, start, end, _ in sorted(spans, key=lambda s: s[2]):
        if name == "storage.place_initial":
            week_start = start
        elif name == "events.Engine.run" and week_start is not None:
            longest = max(longest, end - week_start)
    return longest


# -- the whole run ---------------------------------------------------------


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    declared = [w["name"] for w in manifest["workloads"]]
    if declared != list(WORKLOADS):
        raise HarnessError(f"BENCHMARK.json declares workloads {declared}, "
                           f"the harness defines {list(WORKLOADS)}")
    return manifest


def provenance(seed: int, preps: list[Prepared]) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "scipy": scipy_version,
        "git_sha": git_sha,
        "source_sha256": src_hash.hexdigest(),
        "seed": seed,
        "dataset_seeds": [prep.seed for prep in preps],
        "dataset_sha256": {prep.data.name: prep.data_hashes for prep in preps},
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 manifest: dict, heldout_seed: int | None = None) -> dict:
    """Measure one workload; returns the full record including the result line."""
    deadline = time.monotonic() + DEADLINE_S
    pin_to_one_cpu()
    run_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    preps = [prepare(workload, s, run_dir, deadline) for s in dataset_seeds(seed)]
    generate_s = sum(prep.generate_s for prep in preps)
    # order lines simulated by one run on each dataset
    lines = sum(prep.lines for prep in preps) * workload.scenarios
    record: dict = {"workload": workload.name, "seconds": seconds, "trace": int(trace),
                    "provenance": provenance(seed, preps), "generate_s": generate_s,
                    "lines_per_dataset_pass": lines}
    problems: list[str] = []

    runs, setup = timed_loop(preps, run_dir, seconds, deadline, with_setup=not trace)
    record["setup_samples"] = setup
    execs = [ex for dataset in runs for ex in dataset]
    record["runs"] = {prep.data.name: [ex.__dict__ for ex in dataset]
                      for prep, dataset in zip(preps, runs)}
    record["output_sha256"] = {prep.data.name: dataset[0].hashes
                               for prep, dataset in zip(preps, runs) if dataset}

    def per_dataset(value) -> list[float]:
        """The median of ``value`` over each dataset's runs."""
        return [statistics.median(value(ex) for ex in dataset) for dataset in runs if dataset]

    cpus = per_dataset(lambda ex: ex.scaled_cpu_s)
    walls = per_dataset(lambda ex: ex.wall_s)

    if trace:
        traced_runs = []
        first = runs[0][0]
        for i in range(2):
            trace_path = run_dir / f"trace{i}.json"
            ex = run_cli(preps[0], run_dir, f"traced{i}", deadline, trace_path)
            if ex.hashes and ex.hashes != first.hashes:
                ex.problems.append("traced output hashes differ from the untraced run")
            execs.append(ex)
            if not ex.ok:
                break
            with open(trace_path, encoding="utf-8") as fh:
                metrics, trace_problems = layer_metrics(json.load(fh), ex.wall_s)
            problems += trace_problems
            traced_runs.append(metrics)
        record["traced_runs"] = traced_runs
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        if len(traced_runs) == 2:
            a, b = traced_runs
            counts_a = {k: v for k, v in a.items() if units.get(k) == "count"}
            counts_b = {k: v for k, v in b.items() if units.get(k) == "count"}
            if counts_a != counts_b:
                problems.append("counts differ between the two traced runs: " + ", ".join(
                    k for k in counts_a if counts_a[k] != counts_b.get(k)))
            values = {k: a[k] if units.get(k) == "count" else (a[k] + b[k]) / 2 for k in a}
            values["wall_s"] = statistics.fmean(walls)
            values["unscaled_cpu_s"] = statistics.fmean(per_dataset(lambda ex: ex.cpu_s))
            values["core_slowdown"] = statistics.median(
                ex.slowdown for dataset in runs for ex in dataset)
            # the traced runs use the first dataset
            values["trace_overhead_s"] = values["traced_wall_s"] - walls[0]
            values["datagen.generate_s"] = generate_s
        else:
            values = {}
    elif setup:  # empty only if the first run was killed at the deadline
        values = {
            "cpu_s": statistics.fmean(cpus),
            "setup_s": statistics.median(sample["setup_s"] / sample["slowdown"]
                                         for sample in setup),
            "lines_per_cpu_s": lines / sum(cpus),
            "peak_rss_mb": statistics.median(ex.rss_mb for ex in execs),
        }
    else:
        values = {}
    if not trace:
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}

    if heldout_seed is not None:
        record["heldout"] = heldout(workload, heldout_seed, runs[0][0].hashes, run_dir,
                                    deadline)
        problems += record["heldout"]["problems"]

    failed = sum(1 for ex in execs if not ex.ok)
    if values and set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} are computed or "
                        "declared but not both")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    record["problems"] = problems + [p for ex in execs for p in ex.problems]
    record["result"] = {
        "correct": failed == 0 and not problems and len(metrics) == len(units),
        "attempted": len(execs),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{run_dir.name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def heldout(workload: Workload, seed: int, main_hashes: dict[str, str], run_dir: Path,
            deadline: float) -> dict:
    """Two runs on the first dataset of a second workload seed.

    They must agree with each other and differ from the first dataset of
    the main seed (``main_hashes``).
    """
    held_dir = run_dir / f"heldout-seed{seed}"
    prep = prepare(workload, dataset_seeds(seed)[0], held_dir, deadline)
    runs = [run_cli(prep, held_dir, f"run{i}", deadline) for i in range(2)]
    problems = [f"held-out seed {seed}: {p}" for ex in runs for p in ex.problems]
    if runs[0].hashes != runs[1].hashes:
        problems.append(f"held-out seed {seed}: outputs are not reproducible")
    if runs[0].hashes.get("results.csv") == main_hashes.get("results.csv"):
        problems.append(f"held-out seed {seed}: results.csv equals the main seed's")
    return {"seed": seed, "wall_s": [ex.wall_s for ex in runs],
            "output_sha256": runs[0].hashes, "dataset_sha256": prep.data_hashes,
            "problems": problems}


def report(record: dict) -> None:
    """Print a record for a reader; the caller prints the result line last."""
    prov = record["provenance"]
    result = record["result"]
    print(f"workload {record['workload']}  seed {prov['seed']}  trace {record['trace']}")
    print(f"  cpus {prov['cpu_count']}  python {prov['python']}  scipy {prov['scipy']}  "
          f"git {prov['git_sha']}  source {prov['source_sha256'][:16]}")
    for data, hashes in prov["dataset_sha256"].items():
        for name, digest in hashes.items():
            print(f"  dataset {data + '/' + name:32s} {digest}")
    for data, hashes in record["output_sha256"].items():
        for name, digest in hashes.items():
            print(f"  output  {data + '/' + name:32s} {digest}")
    print(f"  runs {result['attempted']}  failed {result['failed']}")
    for data, runs in record["runs"].items():
        print(f"  {data} untraced wall s / CPU s / slowdown: " + ", ".join(
            f"{run['wall_s']:.3f} / {run['cpu_s']:.3f} / {run['slowdown']:.3f}" for run in runs))
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6f} {metric['unit']}")
    if "heldout" in record:
        held = record["heldout"]
        print(f"  held-out seed {held['seed']}: results.csv "
              f"{held['output_sha256'].get('results.csv')}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="picksim benchmark")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None,
                        help="also check two runs on this second seed")
    args = parser.parse_args(argv)
    # a terminated benchmark stops its child too (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        if not (SRC / "picksim" / "cli.py").is_file():
            raise HarnessError(f"no picksim sources under {SRC}")
        manifest = load_manifest()
        seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
        if args.all:
            records = [run_workload(WORKLOADS[name], args.seed, seconds, trace, manifest,
                                    args.heldout_seed)
                       for name in WORKLOADS for trace in (False, True)]
            for record in records:
                report(record)
            with open(OUT / f"all-seed{args.seed}.json", "w", encoding="utf-8") as fh:
                json.dump(records, fh, indent=1)
            print(json.dumps({r["workload"] + ("/trace" if r["trace"] else ""): r["result"]
                              for r in records}))
            return 0 if all(r["result"]["correct"] for r in records) else 1
        record = run_workload(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace),
                              manifest, args.heldout_seed)
    except (HarnessError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
