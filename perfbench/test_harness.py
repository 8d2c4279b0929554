"""Self-test of the benchmark harness on demo-scale inputs.

Run from the checkout root::

    python3 -m pytest perfbench -q

It runs every workload's command once untraced and twice traced on the
README demo dataset, and checks the harness's own checks on synthetic
inputs.  It is not part of the repository's tier-1 suite (``tests/``).
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import time

import pytest

import run
from tracer import ROOT


@pytest.fixture(autouse=True)
def _private_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    """One untraced run with a held-out seed: (workload, record, run dir)."""
    workload = demo_scale("fixed-zoning-dist-full")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "OUT", tmp_path_factory.mktemp("untraced"))
        record = run.run_workload(workload, 12345, 0.0, False, run.load_manifest(),
                                  heldout_seed=777)
        return workload, record, run.OUT / f"{workload.name}-seed12345-trace0"


def demo_scale(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], scale=run.DEMO)


def test_manifest_matches_harness():
    manifest = run.load_manifest()
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    assert end_to_end == {"cpu_s", "setup_s", "lines_per_cpu_s", "peak_rss_mb"}
    assert all(m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup_bound = next(m["bound"] for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in manifest["end_to_end"])
    assert manifest["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_is_the_same_program(name):
    record = run.run_workload(demo_scale(name), 7, 0.0, True, run.load_manifest())
    result = record["result"]
    assert record["problems"] == []
    # one run on each dataset, then two traced runs
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.DATASETS + 2
    a, b = record["traced_runs"]
    assert a["events.executed"] == b["events.executed"] > 0
    for traced in record["traced_runs"]:
        modules = sum(traced[f"{m}.self_s"] for m in run.MODULES)
        assert modules + traced["unattributed_s"] == pytest.approx(traced["traced_wall_s"])
        assert traced["unattributed_s"] >= 0
    declared = {m["name"] for m in run.load_manifest()["per_layer"]}
    assert set(result["metrics"]) == declared


def test_untraced_run_and_heldout_seed(untraced):
    _, record, _ = untraced
    assert record["problems"] == []
    assert record["result"]["correct"]
    assert set(record["result"]["metrics"]) == {"cpu_s", "setup_s", "lines_per_cpu_s",
                                                "peak_rss_mb"}
    assert len(record["setup_samples"]) == sum(map(len, record["runs"].values()))
    assert record["lines_per_dataset_pass"] == run.DATASETS * run.DEMO.lines
    datasets = record["provenance"]["dataset_sha256"]
    assert len(datasets) == len(set(record["provenance"]["dataset_seeds"])) == run.DATASETS
    assert all(len(files) == 5 for files in datasets.values())
    first = f"data{run.dataset_seeds(12345)[0]}"
    held = record["heldout"]
    assert held["output_sha256"]["results.csv"] != record["output_sha256"][first]["results.csv"]


def test_tampered_output_is_caught(untraced, tmp_path):
    workload, record, run_dir = untraced
    seed = run.dataset_seeds(12345)[0]
    stdout = (run_dir / "logs" / f"run0-{seed}" / "stdout.txt").read_text(encoding="utf-8")
    out = tmp_path / "tampered"
    shutil.copytree(run_dir / f"run0-{seed}", out)
    assert run.check_outputs(workload, out, stdout) == []
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) + 1.0)
    lines[1] = ",".join(fields)
    (out / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = run.check_outputs(workload, out, stdout)
    assert any("printed weekly metrics" in p for p in problems)
    assert run.hash_dir(out) != record["output_sha256"][f"data{seed}"]


def _trace(aggregates, spans=()):
    return {"aggregates": aggregates, "spans": list(spans), "counters": {}}


def test_accounting_catches_inconsistent_traces():
    good = _trace([[ROOT, "cli.main", 1, 2.0, 0.5],
                   ["cli.main", "storage.StoragePolicy.put_away", 3, 1.5, 1.5]])
    metrics, problems = run.layer_metrics(good, 2.5)
    assert problems == []
    assert metrics["cli.self_s"] == 0.5 and metrics["storage.self_s"] == 1.5
    assert metrics["unattributed_s"] == pytest.approx(0.5)

    not_nested = _trace([[ROOT, "cli.main", 1, 2.0, 2.0],
                         ["cli.main", "storage.StoragePolicy.put_away", 3, 1.5, 1.5]])
    assert run.layer_metrics(not_nested, 4.0)[1]
    assert run.layer_metrics(good, 1.0)[1]  # spans longer than the run
    unknown = _trace([[ROOT, "oracle.run", 1, 1.0, 1.0]])
    assert run.layer_metrics(unknown, 2.0)[1]


def test_slowest_week_spans_place_initial_to_engine_run():
    spans = [(1, "storage.place_initial", 0.0, 1.0, 0), (2, "events.Engine.run", 1.0, 4.0, 0),
             (3, "storage.place_initial", 5.0, 5.5, 0), (4, "events.Engine.run", 5.5, 6.0, 0)]
    assert run.slowest_week(spans) == 4.0


def test_spawn_scales_cpu_time_by_the_measured_slowdown(tmp_path):
    ex = run.spawn([sys.executable, "-c", "sum(range(3_000_000))"], tmp_path,
                   time.monotonic() + 60)
    assert ex.exit_code == 0 and ex.cpu_s > 0 and ex.slowdown > 0
    assert ex.scaled_cpu_s == pytest.approx(ex.cpu_s / ex.slowdown)


def test_spawn_kills_a_child_at_the_deadline(tmp_path):
    ex = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path,
                   time.monotonic() + 0.3)
    assert ex.exit_code < 0 and ex.wall_s < 30


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "demo-compare"]) == 2
    assert "correct" not in capsys.readouterr().out
