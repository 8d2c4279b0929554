"""Command-line interface: end-to-end runs, output formats, exit codes."""

from __future__ import annotations

import ast
import json
import os
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from datetime import date
from pathlib import Path

import pytest

from picksim import experiment
from picksim.cli import main
from picksim.picking import ORDERS_HEADER
from picksim.warehouse import INVENTORY_HEADER, ITEMS_HEADER, LAYOUT_HEADER
from conftest import OLD_MODES, RETIRED_KEYS, child_env


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    rc = main(["gen-data", "--out", str(out), "--seed", "9", "--items", "6",
               "--slots", "24", "--lines", "40", "--weeks", "2"])
    assert rc == 0
    return str(out)


def _weekly_file(tmp_path: Path, name: str, values: list[float]) -> str:
    path = tmp_path / f"{name}.csv"
    rows = "\n".join(f"{i},{v}" for i, v in enumerate(values, start=1))
    path.write_text("week,metric\n" + rows + "\n")
    return str(path)


def _written(out: Path) -> dict[str, bytes]:
    """Every file under ``out``, keyed by its path relative to ``out``."""
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


# -- gen-data -------------------------------------------------------------


def test_gen_data_prints_all_four_paths(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path), "--items", "4",
               "--slots", "12", "--lines", "10", "--weeks", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    roles = [line.split(":")[0] for line in out.splitlines()]
    assert roles == ["layout", "items", "inventory", "orders"]
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "initial_inventory.csv", "items.csv", "layout.csv", "orders.csv"]


def test_gen_data_of_a_week_longer_than_30_days_writes_a_dataset_that_finishes(tmp_path,
                                                                               capsys):
    """One item in one slot and 20,000 order lines: the week needs thousands
    of restocked pallets, one per visit, and takes about 38 days of
    simulated time.  A week has no time limit, so the dataset is written
    and its week runs to its last order."""
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--items", "1", "--slots", "1",
                 "--lines", "20000", "--weeks", "1"]) == 0
    assert sorted(p.name for p in data.iterdir()) == [
        "initial_inventory.csv", "items.csv", "layout.csv", "orders.csv"]
    capsys.readouterr()
    assert main(["simulate", "--data", str(data), "--weeks", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "  week 1: 54551.24\n" in captured.out


@pytest.mark.parametrize("lines, weeks", [("3", "4"), ("0", "1")])
def test_gen_data_with_fewer_lines_than_weeks_exits_3(tmp_path, capsys, lines, weeks):
    """Such a dataset would have a week without orders, which every run over
    that many weeks refuses."""
    out = tmp_path / "gen"
    assert main(["gen-data", "--out", str(out), "--lines", lines, "--weeks", weeks]) == 3
    captured = capsys.readouterr()
    assert captured.err == (f"error: scale values must be positive, with at least one line "
                            f"per week: got 10 items, {lines} lines, {weeks} weeks\n")
    assert captured.out == "" and not out.exists()


# -- simulate -------------------------------------------------------------


def test_simulate_writes_identical_results_on_rerun(dataset, tmp_path, capsys):
    args = ["simulate", "--data", dataset, "--weeks", "2", "--audit"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    out1 = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert (tmp_path / "r1" / "results.csv").read_bytes() == \
           (tmp_path / "r2" / "results.csv").read_bytes()
    assert (tmp_path / "r1" / "summary.csv").is_file()
    assert "scenario fixed-homogeneous-area" in out1
    assert "week 1:" in out1 and "total:" in out1


def test_the_audit_leaves_every_output_of_a_traced_run_as_it_was(dataset, tmp_path, capsys):
    """``--audit`` and ``--trace`` share the one observer of a week's
    events: together they write the byte-identical results and traces of
    ``--trace`` alone."""
    outputs = []
    for extra in ([], ["--audit"]):
        out = tmp_path / ("audited" if extra else "plain")
        assert main(["simulate", "--data", dataset, "--weeks", "2", "--trace", "--out", str(out),
                     *extra]) == 0
        outputs.append((capsys.readouterr().out,
                        {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
    assert sorted(outputs[0][1]) == ["results.csv", "summary.csv",
                                     "trace_fixed-homogeneous-area_week1.csv",
                                     "trace_fixed-homogeneous-area_week2.csv"]
    assert outputs[1] == outputs[0]


def test_simulate_scenario_name_flag(dataset, capsys):
    assert main(["simulate", "--data", dataset, "--weeks", "2",
                 "--name", "mylabel"]) == 0
    out = capsys.readouterr().out
    assert "scenario mylabel" in out
    assert "mylabel: mean=" in out  # summary line uses the label too


@pytest.mark.parametrize("name", ["x/../../esc", "a/b", "/abs"])
def test_name_with_a_path_separator_exits_2_before_any_work(dataset, tmp_path, capsys, name):
    """A trace file's name is built from --name: a separator in it would put
    the trace outside --out."""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--data", dataset, "--weeks", "2", "--trace",
              "--out", str(tmp_path / "o" / "out"), "--name", name])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"error: argument --name: must not contain a path separator, got {name!r}\n"
    assert not any(tmp_path.iterdir()), "nothing may be written before the rejection"


def test_simulate_trace_needs_out(dataset, capsys):
    assert main(["simulate", "--data", dataset, "--weeks", "2",
                 "--trace"]) == 2
    assert "--trace requires --out" in capsys.readouterr().err


def test_simulate_trace_files_depend_on_seed(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"replenish": {"mu_s": 300.0, "sigma_s": 90.0}}))
    runs = {}
    for label, seed in (("a", "1"), ("a2", "1"), ("b", "2")):
        out = tmp_path / label
        assert main(["simulate", "--data", dataset, "--weeks", "2",
                     "--config", str(cfg), "--seed", seed, "--name", "t",
                     "--trace", "--out", str(out)]) == 0
        runs[label] = (out / "trace_t_week1.csv").read_bytes()
    capsys.readouterr()
    assert runs["a"] == runs["a2"]  # same seed: identical event log
    assert runs["a"] != runs["b"]  # replenishment times shift with the seed


def test_seed_resolution_order(dataset, tmp_path, capsys, monkeypatch):
    """The master seed is ``--seed``, then 12345, and nothing else: under
    sampled replenishment a run without the flag writes the trace of
    ``--seed 12345`` whatever ``PICKSIM_SEED`` holds, and a config that
    sets ``replenish.seed`` is refused as an unknown field and writes
    nothing."""
    replenish = {"mu_s": 300.0, "sigma_s": 90.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replenish": replenish}))

    def trace_of(label: str, *extra: str) -> bytes:
        out = tmp_path / label
        assert main(["simulate", "--data", dataset, "--weeks", "1", "--config", str(cfg),
                     "--name", "t", "--trace", "--out", str(out), *extra]) == 0
        capsys.readouterr()
        return (out / "trace_t_week1.csv").read_bytes()

    default = trace_of("default")
    assert trace_of("flag", "--seed", "12345") == default
    assert trace_of("other", "--seed", "1") != default
    for value in ("1", "not-a-number"):
        monkeypatch.setenv("PICKSIM_SEED", value)
        assert trace_of(f"env-{value}") == default

    cfg.write_text(json.dumps({"replenish": {**replenish, "seed": 2}}))
    out = tmp_path / "pinned"
    assert main(["simulate", "--data", dataset, "--weeks", "1", "--config", str(cfg),
                 "--trace", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config field replenish.seed\n"
    assert not out.exists()


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
def test_outputs_do_not_depend_on_the_hash_seed(dataset, tmp_path, policy):
    """Two child runs, under ``PYTHONHASHSEED`` 0 and 1, with distance
    walking, sampled replenishment, zone picking and traces: standard
    output and every written file are byte-identical, so no set or dict
    order that the hash seed moves reaches a result."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"walking": {"mode": "distance"},
                               "replenish": {"sigma_s": 60.0}}))
    children = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / f"hash{hash_seed}"
        cwd.mkdir()
        children.append((cwd, subprocess.Popen(
            [sys.executable, "-m", "picksim.cli", "simulate", "--data", dataset,
             "--config", str(cfg), "--policy", policy, "--picking", "zoning",
             "--weeks", "2", "--trace", "--out", "out"],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**child_env(), "PYTHONHASHSEED": hash_seed})))
    runs = []
    for cwd, child in children:
        stdout, stderr = child.communicate(timeout=60)
        assert (child.returncode, stderr) == (0, b"")
        runs.append((stdout, _written(cwd / "out")))
    assert len(runs[0][1]) == 4  # results.csv, summary.csv and a trace per week
    assert runs[0] == runs[1]


# -- compare --------------------------------------------------------------


def test_compare_writes_three_csvs_and_paired_line(dataset, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", dataset, "--weeks", "2",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "scenario S1-homogeneous" in printed
    assert "scenario S2-demand" in printed
    assert "paired t-test: statistic=" in printed
    for f in ("results.csv", "summary.csv", "paired.csv"):
        assert (out / f).is_file()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "scenario,mean,ci_low,ci_high,total,gap_pct"
    assert summary[1].startswith("S1-homogeneous,")
    assert summary[1].endswith(",0.00")  # baseline gap is zero


@pytest.mark.parametrize("command, extra, files", [
    ("simulate", ["--weeks", "1"], {"results.csv"}),
    ("simulate", ["--weeks", "2"], {"results.csv", "summary.csv"}),
    ("compare", ["--weeks", "2"], {"results.csv", "summary.csv", "paired.csv"}),
    ("stats", ["a", "b"], {"summary.csv", "paired.csv"}),
    ("stats", ["a"], {"summary.csv"}),
], ids=["simulate-1-week", "simulate-2-weeks", "compare", "stats-2-files", "stats-1-file"])
def test_each_command_writes_exactly_its_files(dataset, tmp_path, capsys, command, extra,
                                               files):
    """``--out`` gets exactly the files of what a command printed, and each
    printed ``week N:`` line is its ``results.csv`` metric at 2 decimals."""
    out = tmp_path / "out"
    if command == "stats":
        series = {"a": [10.0, 12.0, 11.0], "b": [12.0, 15.0, 12.5]}
        args = ["--weekly", *(_weekly_file(tmp_path, name, series[name]) for name in extra)]
    else:
        args = ["--data", dataset, *extra]
    assert main([command, *args, "--out", str(out)]) == 0
    printed = [line.split(": ")[1] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  week ")]
    assert {path.name for path in out.iterdir()} == files
    metrics = []
    if "results.csv" in files:
        header, *rows = [row.split(",") for row in
                         (out / "results.csv").read_text().splitlines()]
        metrics = [f"{float(row[header.index('metric')]):.2f}" for row in rows]
    assert printed == metrics


@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_compare_results_equal_the_two_simulate_runs(dataset, tmp_path, capsys, picking):
    """``compare`` loads the data once for both scenarios; each scenario's rows
    are those of ``simulate`` under the same name and allocation."""
    common = ["--data", dataset, "--weeks", "2", "--picking", picking]
    assert main(["compare", *common, "--out", str(tmp_path / "cmp")]) == 0
    for name, allocation in (("S1-homogeneous", "homogeneous"), ("S2-demand", "demand")):
        assert main(["simulate", *common, "--name", name, "--allocation", allocation,
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    rows = [(tmp_path / d / "results.csv").read_text().splitlines()
            for d in ("cmp", "S1-homogeneous", "S2-demand")]
    assert rows[0] == rows[1] + rows[2][1:]


@pytest.mark.parametrize("data", ["real", "missing"])
def test_compare_of_one_week_exits_2_before_reading_data(dataset, tmp_path, capsys, data):
    """The paired t-test needs two weeks: one week is refused before any
    file is read, whether or not the dataset exists."""
    where = dataset if data == "real" else str(tmp_path / "nope")
    out = tmp_path / "cmp"
    assert main(["compare", "--data", where, "--weeks", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: argument --weeks: compare needs at least 2 weeks "
                            "for its paired t-test, got 1\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("data", ["real", "missing"])
@pytest.mark.parametrize("policy", ["random", "fixed-zone"])
def test_compare_under_a_policy_that_ignores_allocation_exits_3_before_reading(
        dataset, tmp_path, capsys, policy, data):
    """Only fixed storage reads the slot allocation, so comparing the two
    allocations under another policy would run one configuration twice."""
    if data == "real":
        where = ["--data", dataset]
    else:
        where = ["--data", str(tmp_path / "nope"), "--config", str(tmp_path / "nope.json")]
    out = tmp_path / "cmp"
    assert main(["compare", *where, "--policy", policy, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (f"error: compare varies the slot allocation, which only "
                            f"--policy fixed reads; --policy {policy} would run one "
                            f"configuration twice\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("data", ["real", "missing"])
@pytest.mark.parametrize("allocation", ["homogeneous", "demand"])
@pytest.mark.parametrize("policy", ["random", "fixed-zone"])
def test_simulate_allocation_under_a_policy_that_ignores_it_exits_3_before_reading(
        dataset, tmp_path, capsys, policy, allocation, data):
    """Only fixed storage reads the slot allocation: under another policy an
    explicit ``--allocation`` would change the scenario's name and nothing else."""
    if data == "real":
        where = ["--data", dataset]
    else:
        where = ["--data", str(tmp_path / "nope"), "--config", str(tmp_path / "nope.json")]
    out = tmp_path / "run"
    assert main(["simulate", *where, "--policy", policy, "--allocation", allocation,
                 "--weeks", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (f"error: --allocation sizes the slot map, which only --policy "
                            f"fixed reads; --policy {policy} would ignore it\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
def test_simulate_without_allocation_names_the_homogeneous_scenario(dataset, capsys, policy):
    assert main(["simulate", "--data", dataset, "--policy", policy, "--picking", "zoning",
                 "--weeks", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith(
        f"scenario {policy}-homogeneous-zoning (metric unit: minutes)\n")


# -- stats ----------------------------------------------------------------


def test_stats_frozen_reference_output(tmp_path, capsys):
    a = _weekly_file(tmp_path, "a", [103.0, 143.0, 122.0, 97.0])
    b = _weekly_file(tmp_path, "b", [148.0, 150.0, 129.0, 135.0])
    assert main(["stats", "--weekly", a, b, "--out", str(tmp_path / "s")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a: mean=116.25 ci95=[83.19, 149.31] total=465.00 gap=0.00%"
    assert out[1] == "b: mean=140.50 ci95=[124.35, 156.65] total=562.00 gap=20.86%"
    assert out[2] == "paired t-test: statistic=2.4102 df=3 p=0.0950"
    paired = (tmp_path / "s" / "paired.csv").read_text().splitlines()
    assert paired == ["statistic,df,p_value", "2.4102,3,0.0950"]


def test_stats_single_file_gets_no_paired_line(tmp_path, capsys):
    a = _weekly_file(tmp_path, "solo", [10.0, 12.0, 11.0])
    assert main(["stats", "--weekly", a]) == 0
    out = capsys.readouterr().out
    assert "solo: mean=11.00" in out
    assert "paired" not in out


def test_stats_rejects_three_files(tmp_path, capsys):
    files = [_weekly_file(tmp_path, n, [1.0, 2.0]) for n in "abc"]
    assert main(["stats", "--weekly", *files]) == 2
    assert "one or two files" in capsys.readouterr().err


def test_stats_short_series_is_a_data_error(tmp_path, capsys):
    a = _weekly_file(tmp_path, "short", [10.0])
    assert main(["stats", "--weekly", a]) == 3
    assert "at least two weekly values" in capsys.readouterr().err


def test_stats_bad_header_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("weekno,value\n1,10\n")
    assert main(["stats", "--weekly", str(path)]) == 2
    assert "expected header week,metric" in capsys.readouterr().err


@pytest.mark.parametrize("week", ["foo", ""])
def test_stats_week_that_is_not_an_integer_exits_2_naming_its_line(tmp_path, capsys, week):
    path = tmp_path / "a.csv"
    path.write_text(f"week,metric\n1,10\n{week},12\n3,11\n")
    assert main(["stats", "--weekly", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}:3: invalid literal for int() with base 10: {week!r}\n"


def test_stats_repeated_week_exits_3_naming_its_line(tmp_path, capsys):
    path = tmp_path / "a.csv"
    path.write_text("week,metric\n1,10\n2,12\n1,11\n")
    assert main(["stats", "--weekly", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path}:4: week 1 appears twice\n"


def test_stats_files_listing_different_weeks_exit_3(tmp_path, capsys):
    a = _weekly_file(tmp_path, "a", [103.0, 143.0, 122.0, 97.0])
    b = tmp_path / "b.csv"
    # the reference series b, its rows listed from week 4 down to week 1
    b.write_text("week,metric\n4,135\n3,129\n2,150\n1,148\n")
    assert main(["stats", "--weekly", a, str(b)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {a} and {b} must list the same weeks")


@pytest.mark.parametrize("others", [[], [[3.0, 5.0]]], ids=["one-file", "two-files"])
def test_stats_first_total_not_positive_exits_3(tmp_path, capsys, others):
    """The gaps are percentages of the first total, even a lone file's own."""
    files = [_weekly_file(tmp_path, name, values)
             for name, values in zip("nb", [[-4.0, -4.0], *others])]
    out = tmp_path / "s"
    assert main(["stats", "--weekly", *files, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n: gap needs a positive baseline total, got -8.0\n"
    assert not out.exists()


_IN_RANGE = [1.0] * 8  # weeks that keep the series' intervals in float range


@pytest.mark.parametrize("series, message", [
    ([[1e308, 1e308]],
     "a: the total of the weekly values is out of float range"),
    ([[1.7e308, -1.7e308]],
     "a: the standard deviation of the weekly values is out of float range"),
    ([[1e308, 1e307]],
     "a: the 95% confidence interval [-inf, inf] of the weekly values is out of float range"),
    ([[5.0, 6.0], [1e308, 1e307]],
     "b: the 95% confidence interval [-inf, inf] of the weekly values is out of float range"),
    ([[0.001, 0.002], [1e305, 1e305]],
     "b: the gap of total 2e+305 against total 0.003 is out of float range"),
    ([[1e308, -1e308, 1e308], [-1e308, 1e308, -1e308]],
     "a: the 95% confidence interval [-inf, inf] of the weekly values is out of float range"),
    ([[9e307, -9e307, *_IN_RANGE], [-9e307, 9e307, *_IN_RANGE]],
     "the paired difference b - a of pair 1 (-9e+307 - 9e+307) is out of float range"),
    # the gap is about -100%, but pair 1's difference is -1.85e308
    ([[9.5e307, 1.0, *_IN_RANGE], [-9e307, 9e307, *_IN_RANGE]],
     "the paired difference b - a of pair 1 (-9e+307 - 9.5e+307) is out of float range"),
], ids=["total", "sd", "interval", "interval-of-second", "gap", "paired-interval",
        "paired-difference", "paired-difference-not-gap"])
def test_stats_beyond_float_range_exits_3(tmp_path, capsys, series, message):
    """Finite weekly values whose sum, spread, gap or paired difference
    passes the largest float exit 3 with one line, and nothing is written."""
    files = [_weekly_file(tmp_path, name, values) for name, values in zip("ab", series)]
    out = tmp_path / "s"
    assert main(["stats", "--weekly", *files, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def _stats_lines(tmp_path, series) -> list[list[float]]:
    """``stats --weekly`` of ``series`` (files a, b), which must exit 0: the
    figures of each ``summary.csv`` row, mean to gap."""
    files = [_weekly_file(tmp_path, name, values) for name, values in zip("ab", series)]
    assert main(["stats", "--weekly", *files, "--out", str(tmp_path / "s")]) == 0
    header, *rows = (tmp_path / "s" / "summary.csv").read_text().splitlines()
    return [[float(cell) for cell in row.split(",")[1:]] for row in rows]


def test_stats_total_and_mean_are_exact_where_the_float_sum_overflows(tmp_path):
    """The running sum of 1e308, 1e308, -1e308, -1e308, 1e308 passes the
    largest float, but its total 1e308, mean 2e307 and standard deviation
    1.095e308 do not, nor does the interval (t times sd passes it, t times
    sd / sqrt(5) does not): ``stats`` reports them."""
    [[mean, low, high, total, gap_pct]] = _stats_lines(
        tmp_path, [[1e308, 1e308, -1e308, -1e308, 1e308]])
    assert (mean, total, gap_pct) == (2e307, 1e308, 0.0)
    half = 2.7764451051977934 * (1.0954451150103322e308 / 5 ** 0.5)  # t(0.975, 4) sd/sqrt(n)
    assert low == pytest.approx(mean - half, rel=1e-12)
    assert high == pytest.approx(mean + half, rel=1e-12)


def test_stats_gap_of_a_huge_baseline_is_minus_100(tmp_path):
    """``100 (b - a)`` overflows for a = 9.5e307 + 9 and b = 10, but the gap
    ``100 (b / a - 1)`` is -100%."""
    lines = _stats_lines(tmp_path, [[9.5e307, *[1.0] * 9], [1.0] * 10])
    assert [line[-1] for line in lines] == [0.0, -100.0]


# -- exit codes and argument validation -----------------------------------


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--data", "x", "--frobnicate"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "compare", "gen-data"])
@pytest.mark.parametrize("weeks", ["0", "-1"])
def test_weeks_below_one_exits_2_at_parse_time(dataset, tmp_path, capsys, command, weeks):
    where = ["--out", str(tmp_path)] if command == "gen-data" else ["--data", dataset]
    with pytest.raises(SystemExit) as exc:
        main([command, *where, "--weeks", weeks])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"error: argument --weeks: must be at least 1, got {weeks}\n"
    assert not any(tmp_path.iterdir()), "nothing may be written before the rejection"


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--seed", "x"), ("compare", "--seed", "1e3"), ("simulate", "--weeks", "two"),
    ("gen-data", "--seed", "0x10"), ("gen-data", "--items", "1.5"), ("gen-data", "--slots", ""),
    ("gen-data", "--lines", "7 7"),
])
def test_an_integer_flag_that_is_not_an_integer_exits_2_quoting_it(dataset, tmp_path, capsys,
                                                                  command, flag, value):
    where = ["--out", str(tmp_path)] if command == "gen-data" else ["--data", dataset]
    with pytest.raises(SystemExit) as exc:
        main([command, *where, flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: argument {flag}: invalid int value: {value!r}\n"
    assert not any(tmp_path.iterdir()), "nothing may be written before the rejection"


@pytest.mark.parametrize("length", [5, 200, 201, 5000])
@pytest.mark.parametrize("command, flag", [
    ("simulate", "--seed"), ("gen-data", "--items"), ("simulate", "--policy"),
    ("compare", "--picking"), ("simulate", "--allocation"),
])
def test_a_long_flag_value_is_quoted_by_at_most_its_first_200_characters(
        dataset, tmp_path, capsys, command, flag, length):
    """An integer flag's ``invalid int value`` and a choice flag's ``invalid
    choice`` quote the value whole up to 200 characters and its first 200
    beyond, so the one line stays under 300 bytes."""
    where = ["--out", str(tmp_path)] if command == "gen-data" else ["--data", dataset]
    with pytest.raises(SystemExit) as exc:
        main([command, *where, flag, "x" * length])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    quoted = "x" * min(length, 200)
    if flag in ("--seed", "--items"):
        assert err == f"error: argument {flag}: invalid int value: '{quoted}'\n"
    else:
        assert err.startswith(f"error: argument {flag}: invalid choice: '{quoted}' (choose from ")
        assert err.endswith(")\n") and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert not any(tmp_path.iterdir()), "nothing may be written before the rejection"


def _usage_error(capsys, argv: list[str]) -> str:
    """The standard error of a command line that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


RUN = ["simulate", "--data", "D", "--out", "O"]


@pytest.mark.parametrize("argv, cut", [
    (["x" * 5000], ["x" * 200]),
    ([*RUN, "--unknown-" + "x" * 5000], [*RUN, "--unknown-" + "x" * 190]),
    ([*RUN, "--policy=" + "x" * 5000], [*RUN, "--policy=" + "x" * 200]),
    ([*RUN, "--seed=" + "x" * 5000], [*RUN, "--seed=" + "x" * 200]),
    ([*RUN, "--name", "a/" * 2500], [*RUN, "--name", "a/" * 100]),
    ([*RUN, "--picking", "x'\n" * 2000], [*RUN, "--picking", "x'\n" * 66 + "x'"]),
], ids=["command", "unknown-option", "choice-after-equals", "integer-after-equals",
        "name", "choice-quoted-with-escapes"])
def test_any_usage_error_quotes_an_argument_by_its_first_200_characters(capsys, argv, cut):
    """An argument, or the value after an option's ``=``, of more than 200
    characters is quoted by its first 200 in every argparse message: an
    unknown command or option and a value refused by its type or choices.
    The line is the one of that cut argument, so it stays short."""
    err = _usage_error(capsys, argv)
    assert err == _usage_error(capsys, cut)
    # an escape such as \n lengthens the quote by a character
    assert err.count("\n") == 1 and len(err.encode()) <= 301 + err.count("\\")


def test_many_short_unknown_arguments_are_all_quoted(capsys):
    extra = [f"--unknown-{i}" for i in range(100)]
    assert _usage_error(capsys, [*RUN, *extra]) == (
        f"error: unrecognized arguments: {' '.join(extra)}\n")


@pytest.mark.parametrize("command", ["simulate", "compare", "gen-data", "stats"])
@pytest.mark.parametrize("where", ["file", "below-file", "dangling-link", "empty"])
def test_out_that_cannot_be_a_directory_exits_2(dataset, tmp_path, capsys, monkeypatch,
                                                command, where):
    """``--out`` naming an existing file, a path below one, a dangling
    symbolic link or nothing at all is refused on one line before any work
    starts."""
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "weekly.csv"
    taken.write_text("week,metric\n1,10\n2,12\n")
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "nowhere")
    out = {"file": str(taken), "below-file": str(taken / "x"), "dangling-link": str(link),
           "empty": ""}[where]
    args = {"simulate": ["--data", dataset, "--weeks", "2", "--trace"],
            "compare": ["--data", dataset, "--weeks", "2"],
            "gen-data": [],
            "stats": ["--weekly", str(taken)]}[command]
    assert main([command, *args, "--out", out]) == 2
    captured = capsys.readouterr()
    if where == "empty":
        reason = "must name a directory, got ''"
    else:
        blocker = link if where == "dangling-link" else taken
        reason = f"cannot make directory {out}: {blocker} is not a directory"
    assert captured.err == f"error: argument --out: {reason}\n"
    assert captured.out == ""
    assert taken.read_text() == "week,metric\n1,10\n2,12\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "weekly.csv"]
    assert not link.exists()


@pytest.mark.parametrize("command, blocked", [
    ("simulate", "results.csv"),
    ("simulate", "trace_fixed-homogeneous-area_week1.csv"),
    ("compare", "paired.csv"),
    ("stats", "summary.csv"),
    ("gen-data", "layout.csv"),
])
def test_output_file_that_cannot_be_written_exits_2(dataset, tmp_path, capsys, command, blocked):
    """An output path that is taken by a directory ends the command on one
    ``error:`` line naming it, not in a traceback."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    weekly = _weekly_file(tmp_path, "a", [10.0, 12.0])
    args = {"simulate": ["--data", dataset, "--weeks", "2", "--trace"],
            "compare": ["--data", dataset, "--weeks", "2"],
            "gen-data": ["--items", "4", "--slots", "12", "--lines", "10", "--weeks", "1"],
            "stats": ["--weekly", weekly]}[command]
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / blocked}: ")
    assert err.count("\n") == 1


def test_missing_dataset_exits_2(tmp_path, capsys):
    assert main(["simulate", "--data", str(tmp_path / "nope"),
                 "--weeks", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_value_exits_3(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sps": -4}))
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "1"]) == 3
    assert "sps" in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    ({"replenish": {"mu_s": "x"}}, "replenish.mu_s"),
    ({"replenish": {"sigma_s": None}}, "replenish.sigma_s"),
    ({"metric_unit": []}, "metric_unit"),
    ({"pieces_per_master": True}, "pieces_per_master"),
])
def test_config_value_of_the_wrong_type_exits_3(dataset, tmp_path, capsys, config, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("config", [
    {"walking": {"mode": "distance", "equipment": "stacker"}},
    {"walking": {"equipment": "stacker"}},
], ids=["distance-stacker", "stacker"])
def test_a_walking_config_of_earlier_versions_runs_as_the_default(dataset, tmp_path, config):
    """Every leg is walked on the stacker, so a config that says so runs as
    ``{}`` does: the same stdout and files, traces included, and nothing on
    stderr."""
    runs, written = [], []
    for label, data in (("old", config), ("new", {})):
        path, out = tmp_path / f"{label}.json", tmp_path / f"out-{label}"
        path.write_text(json.dumps(data))
        runs.append(subprocess.run(
            [sys.executable, "-m", "picksim.cli", "simulate", "--data", dataset, "--weeks", "2",
             "--config", str(path), "--trace", "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        ))
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stderr == runs[1].stderr == ""
    assert runs[0].stdout == runs[1].stdout
    assert sorted(written[0]) == ["results.csv", "summary.csv",
                                  *(f"trace_fixed-homogeneous-area_week{n}.csv" for n in (1, 2))]
    assert written[0] == written[1]


@pytest.mark.parametrize("walking, message", [
    ({"mode": "distance", "equipment": "handlift"}, "walking.equipment must be 'stacker'"),
    ({"mode": "distance", "equipment": "x" * 5000}, "walking.equipment must be 'stacker'"),
    ({"mode": "constant"}, "walking.mode must be 'distance'"),
    ({"mode": "x" * 5000}, "walking.mode must be 'distance'"),
    ({"mode": "distance", "x": 1}, "unknown config field walking.x"),
], ids=["handlift", "long-equipment", "constant", "long-mode", "unknown"])
def test_a_walking_config_that_asks_for_another_model_exits_3_on_one_line(
        dataset, tmp_path, capsys, walking, message):
    """Running constant walking, or a handlift, at stacker distances would
    change the results without saying so."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"walking": walking}))
    out = tmp_path / "out"
    assert main(["simulate", "--data", dataset, "--config", str(cfg), "--weeks", "2",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert len(captured.err.encode()) < 300
    assert not out.exists()


def _edited_dataset(dataset: str, tmp_path: Path, name: str, line: int,
                    edit) -> Path:
    """A copy of ``dataset`` whose file ``name`` has line ``line`` replaced by
    ``edit(cells)`` of that line's cells."""
    copy = tmp_path / "edited"
    shutil.copytree(dataset, copy)
    lines = (copy / name).read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    (copy / name).write_text("\n".join(lines) + "\n")
    return copy


@pytest.mark.parametrize("name, column, value", [
    ("layout.csv", 3, "nan"),
    ("layout.csv", 3, "inf"),
    ("layout.csv", 4, "nan"),
    ("layout.csv", 5, "inf"),
])
def test_non_finite_number_in_a_dataset_exits_2(dataset, tmp_path, capsys, name, column, value):
    def edit(cells):
        cells[column] = value
        return cells

    data = _edited_dataset(dataset, tmp_path, name, 3, edit)
    assert main(["simulate", "--data", str(data), "--policy", "random", "--weeks", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {data / name}:3: '{value}' is not a finite number\n"


@pytest.mark.parametrize("source, cell, message", [
    ("layout.csv", "7" * 5000, f"'{'7' * 200}' is not a finite number"),
    ("layout.csv", "x" * 5000, f"could not convert string to float: '{'x' * 200}'"),
    ("weekly.csv", "7" * 5000, f"'{'7' * 200}' is not a finite number"),
], ids=["layout-digits", "layout-letters", "weekly-digits"])
def test_a_float_cell_of_5000_characters_exits_2_on_a_short_line(dataset, tmp_path, capsys,
                                                                 monkeypatch, source, cell,
                                                                 message):
    """The refusal quotes the cell's first 200 characters, not all 5,000,
    so its one line stays under 300 bytes."""
    monkeypatch.chdir(tmp_path)
    if source == "weekly.csv":
        Path(source).write_text(f"week,metric\n1,10\n2,{cell}\n")
        argv = ["stats", "--weekly", source]
        where = "weekly.csv:3"
    else:
        def edit(cells):
            cells[3] = cell
            return cells

        data = _edited_dataset(dataset, tmp_path, source, 3, edit).relative_to(tmp_path)
        argv = ["simulate", "--data", str(data), "--weeks", "1"]
        where = f"{data / source}:3"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: {message}\n"
    assert len(captured.err.encode()) < 300


@pytest.mark.parametrize("offset", ["first-order", "every-order"])
def test_orders_mixing_naive_and_offset_datetimes_exit_3(dataset, tmp_path, capsys, offset):
    """Naive and UTC-offset times cannot be compared; an ``orders.csv`` that
    gives the first order's lines an offset and no other's exits 3 at the
    first line of another order, and one that gives every line an offset
    simulates as the naive file does."""
    data = tmp_path / "offset"
    shutil.copytree(dataset, data)
    header, *rows = (data / "orders.csv").read_text().splitlines()
    first = rows[0].split(",")[1]
    edited = [row.replace(",", "+02:00,", 1)
              if offset == "every-order" or row.split(",")[1] == first else row
              for row in rows]
    (data / "orders.csv").write_text("\n".join([header, *edited]) + "\n")
    out = tmp_path / "out"
    code = main(["simulate", "--data", str(data), "--weeks", "2", "--out", str(out)])
    captured = capsys.readouterr()
    if offset == "every-order":
        assert code == 0, captured.err
        assert main(["simulate", "--data", dataset, "--weeks", "2",
                     "--out", str(tmp_path / "naive")]) == 0
        assert (out / "results.csv").read_bytes() == (
            tmp_path / "naive" / "results.csv").read_bytes()
        return
    line = next(n for n, row in enumerate(rows, start=2) if row.split(",")[1] != first)
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"error: {data / 'orders.csv'}:{line}: order_datetime "
                            f"{rows[line - 2].split(',')[0]}: a file's order times must all "
                            "have a UTC offset, or none\n")
    assert not out.exists()


def test_offset_orders_are_weeked_from_their_first_calendar_date(dataset, tmp_path, capsys):
    """Each order's week counts from the first local date in the file, so
    an order of an earlier local date but a later instant than another is
    not dropped from week 1."""
    data = tmp_path / "offset"
    shutil.copytree(dataset, data)
    header, first, *_ = (data / "orders.csv").read_text().splitlines()
    item = first.split(",")[3]
    (data / "orders.csv").write_text("\n".join([
        header,
        f"2024-06-02 23:00:00+00:00,O1,T1,{item},1",
        f"2024-06-03 00:30:00+02:00,O2,T2,{item},1",  # the earlier instant
    ]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--data", str(data), "--weeks", "1", "--out", str(out),
                 "--trace"]) == 0
    capsys.readouterr()
    trace = (out / "trace_fixed-homogeneous-area_week1.csv").read_text()
    assert [row.split(",")[3] for row in trace.splitlines()
            if row.split(",")[2] == "StartPickOrder"] == ["order=0", "order=1"]


def test_a_restock_dated_past_the_last_date_exits_3_naming_it(dataset, tmp_path, capsys):
    """Orders on 9999-12-31 and a first restocking visit a day later: the
    pallet's date cannot be reached, and the run exits 3 on one line
    naming it, not in an ``OverflowError``."""
    data = tmp_path / "late"
    shutil.copytree(dataset, data)
    header, *rows = (data / "orders.csv").read_text().splitlines()
    (data / "orders.csv").write_text("\n".join(
        [header, *("9999-12-31 09:00:00," + row.split(",", 1)[1] for row in rows)]) + "\n")
    config = tmp_path / "slow.json"
    config.write_text(json.dumps({"replenish": {"mu_s": 100000}}))
    assert main(["simulate", "--data", str(data), "--config", str(config),
                 "--weeks", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a pallet restocked at t=100000.0 s would be dated "
                            "past 9999-12-31\n")


@pytest.mark.parametrize("old, new", OLD_MODES.values(), ids=OLD_MODES)
def test_a_config_of_replenish_mode_runs_as_its_translation(dataset, tmp_path, capsys,
                                                            old, new):
    """A config that sets ``replenish.mode`` prints and writes, traces
    included, what the same config in today's fields does, warning of
    nothing."""
    runs = []
    for label, replenish in (("old", old), ("new", new)):
        config = tmp_path / f"{label}.json"
        config.write_text(json.dumps({"replenish": replenish}))
        assert main(["simulate", "--data", dataset, "--config", str(config), "--weeks", "2",
                     "--name", "t", "--trace", "--out", str(tmp_path / label)]) == 0
        runs.append((capsys.readouterr(), _written(tmp_path / label)))
    assert runs[0] == runs[1] and runs[0][0].err == ""
    assert any(row.endswith(",Replenish,") for row in
               runs[0][1]["trace_t_week1.csv"].decode().splitlines())


def test_a_visit_past_every_finite_time_exits_3_naming_mu_s_and_sigma_s(tmp_path, capsys):
    """A sigma so wide that a drawn interval overflows to infinity is
    refused on one line, not in a ``ValueError`` traceback."""
    data = tmp_path / "demo"
    assert main(["gen-data", "--out", str(data), "--seed", "12345", "--items", "25",
                 "--slots", "120", "--lines", "600", "--weeks", "4"]) == 0
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"replenish": {"mode": "sampled", "mu_s": 600,
                                                "sigma_s": 1e308}}))
    capsys.readouterr()
    assert main(["simulate", "--data", str(data), "--config", str(config), "--weeks", "1",
                 "--seed", "9", "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: the replenishment visit after t=")
    assert captured.err.endswith(" would fall at t=inf: replenish.mu_s or replenish.sigma_s "
                                 "is too large\n")
    assert not (tmp_path / "out").exists()


# each file whose format an earlier gen-data wrote with more columns ->
# (that header, a current row's cells -> the row in that format)
OLD_FORMATS = {
    "layout.csv": ("row,layer,slot,x_cm,y_cm,z_cm,zone,seq_no,direction,parent",
                   lambda cells: cells + ["L", "R00"]),
    "items.csv": ("item_code,category,weight_kg,home_zone,qty_per_pallet",
                  lambda cells: cells[:1] + ["snack", "2.5"] + cells[1:]),
    "orders.csv": ("order_datetime,order_no,truck_id,item_code,qty,weight_kg",
                   lambda cells: cells + ["5.0"]),
}
HEADERS = {"layout.csv": LAYOUT_HEADER, "items.csv": ITEMS_HEADER,
           "initial_inventory.csv": INVENTORY_HEADER, "orders.csv": ORDERS_HEADER}


@pytest.mark.parametrize("name", OLD_FORMATS)
def test_dataset_file_in_the_old_format_exits_2(dataset, tmp_path, capsys, name):
    old_header, old_row = OLD_FORMATS[name]
    data = tmp_path / "old"
    shutil.copytree(dataset, data)
    rows = (data / name).read_text().splitlines()[1:]
    (data / name).write_text("\n".join(
        [old_header] + [",".join(old_row(row.split(","))) for row in rows]) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--data", str(data), "--weeks", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {data / name}: expected header "
                            f"{','.join(HEADERS[name])}, got {old_header}\n")
    assert not out.exists()


def test_a_leading_byte_order_mark_is_ignored(dataset, tmp_path, capsys, monkeypatch):
    """Copies of the four dataset files, two weekly files and a config that
    start with a UTF-8 byte-order mark, as spreadsheet exports do, run
    exactly as the plain copies: same exit codes, output and files."""
    files = {"cfg.json": b'{"walking": {"mode": "distance"}}',
             "a.csv": b"week,metric\n1,103\n2,143\n3,122\n",
             "b.csv": b"week,metric\n1,148\n2,150\n3,129\n",
             **{f"data/{path.name}": path.read_bytes() for path in Path(dataset).iterdir()}}
    assert len(files) == 7
    outcomes = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        run_dir = tmp_path / name
        (run_dir / "data").mkdir(parents=True)
        for path, text in files.items():
            (run_dir / path).write_bytes(prefix + text)
        monkeypatch.chdir(run_dir)
        codes = [main(["simulate", "--data", "data", "--config", "cfg.json", "--weeks", "2",
                       "--out", "out/sim"]),
                 main(["stats", "--weekly", "a.csv", "b.csv", "--out", "out/stats"])]
        outcomes.append((codes, capsys.readouterr(), _written(run_dir / "out")))
    assert outcomes[0][0] == [0, 0]
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name, line, copied, message", [
    ("layout.csv", 6, slice(0, 3), lambda c: f"duplicate location id ({c[0]}, {c[1]}, {c[2]})"),
    ("layout.csv", 6, slice(7, 8), lambda c: f"seq_no {c[7]} of slot ({c[0]}, {c[1]}, {c[2]}) "
                                             "repeats an earlier storage slot's"),
    ("items.csv", 3, slice(0, 1), lambda c: f"duplicate item code {c[0]}"),
], ids=["slot-id", "seq_no", "item-code"])
def test_repeated_key_in_a_dataset_exits_3_naming_its_line(dataset, tmp_path, capsys, name,
                                                          line, copied, message):
    """The ``copied`` cells of a line (a storage slot's, in layout.csv) are
    those of the line before it."""
    before = (Path(dataset) / name).read_text().splitlines()[line - 2].split(",")

    def edit(cells):
        cells[copied] = before[copied]
        return cells

    data = _edited_dataset(dataset, tmp_path, name, line, edit)
    cells = (data / name).read_text().splitlines()[line - 1].split(",")
    out = tmp_path / "out"
    assert main(["simulate", "--data", str(data), "--weeks", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {data / name}:{line}: {message(cells)}\n"
    assert not out.exists()


@pytest.mark.parametrize("policy", ["fixed", "random"])
def test_initial_pallet_of_an_unknown_item_exits_3(dataset, tmp_path, capsys, policy):
    data = _edited_dataset(dataset, tmp_path, "initial_inventory.csv", 3,
                           lambda cells: cells[:3] + ["NOPE"] + cells[4:])
    out = tmp_path / "out"
    assert main(["simulate", "--data", str(data), "--policy", policy, "--weeks", "1",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {data / 'initial_inventory.csv'}: unknown item NOPE\n"
    assert not out.exists()


def test_initial_pallet_of_no_pieces_exits_3_naming_its_line(dataset, tmp_path, capsys):
    """So do an item of no pieces per pallet and an order line of no pieces."""
    for name, column, message in (
            ("initial_inventory.csv", 4,
             lambda cells: f"initial pallet of {cells[3]}: qty must be >= 1, got 0"),
            ("items.csv", 2, lambda cells: f"item {cells[0]}: qty_per_pallet must be >= 1"),
            ("orders.csv", 4, lambda cells: f"order line of {cells[3]}: qty must be >= 1")):
        data = _edited_dataset(dataset, tmp_path / name, name, 3,
                               lambda cells: cells[:column] + ["0"] + cells[column + 1:])
        cells = (data / name).read_text().splitlines()[2].split(",")
        assert main(["simulate", "--data", str(data), "--weeks", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {data / name}:3: {message(cells)}\n"


def test_initial_pallet_over_a_full_pallet_exits_3_naming_its_file(dataset, tmp_path, capsys):
    data = _edited_dataset(dataset, tmp_path, "initial_inventory.csv", 3,
                           lambda cells: cells[:4] + ["5000"] + cells[5:])
    code = (data / "initial_inventory.csv").read_text().splitlines()[2].split(",")[3]
    per_pallet = next(line.split(",")[2] for line in (data / "items.csv").read_text().splitlines()
                      if line.startswith(code + ","))
    out = tmp_path / "out"
    assert main(["simulate", "--data", str(data), "--weeks", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {data / 'initial_inventory.csv'}: pallet of {code} "
                            f"must hold 1..{per_pallet} pieces, got 5000\n")
    assert not out.exists()


@pytest.mark.parametrize("where", ["unknown-slot", "anchor", "taken-slot"])
def test_initial_pallet_off_a_free_storage_slot_exits_3_before_any_week(
        dataset, tmp_path, capsys, monkeypatch, where):
    inventory = (Path(dataset) / "initial_inventory.csv").read_text().splitlines()
    moved = {"unknown-slot": ["99", "9", "9"], "anchor": ["-1", "0", "2"],
             "taken-slot": inventory[1].split(",")[:3]}[where]
    data = _edited_dataset(dataset, tmp_path, "initial_inventory.csv", 3,
                           lambda cells: moved + cells[3:])
    code = inventory[2].split(",")[3]
    loc = tuple(int(cell) for cell in moved)
    monkeypatch.setattr(experiment, "Warehouse", None)  # a week that starts fails
    out = tmp_path / "out"
    assert main(["simulate", "--data", str(data), "--weeks", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    inv = data / "initial_inventory.csv"
    if where == "taken-slot":
        assert captured.err == f"error: {inv}: two pallets on slot {loc}\n"
    else:
        assert captured.err == (f"error: {inv}: pallet of {code} on {loc}, "
                                f"not a storage slot of {data / 'layout.csv'}\n")
    assert not out.exists()


def test_stray_id_on_the_anchor_row_of_the_layout_exits_3_naming_its_line(dataset, tmp_path,
                                                                          capsys):
    data = _edited_dataset(dataset, tmp_path, "layout.csv", 5,
                           lambda cells: ["-1", "0", "7"] + cells[3:])
    assert main(["simulate", "--data", str(data), "--policy", "random", "--weeks", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {data / 'layout.csv'}:5: row -1 holds only the anchors "
                            f"(-1, 0, 0), (-1, 0, 1) and (-1, 0, 2), got (-1, 0, 7)\n")


def test_a_home_zone_without_a_slot_exits_3_before_any_week_under_fixed_zone_only(
        dataset, tmp_path, capsys, monkeypatch):
    """Fixed and random storage never read ``home_zone``, so they run the data."""
    data = _edited_dataset(dataset, tmp_path, "items.csv", 2,
                           lambda cells: [cells[0], "Z9", *cells[2:]])
    code = (data / "items.csv").read_text().splitlines()[1].split(",")[0]
    for policy in ("fixed", "random"):
        assert main(["simulate", "--data", str(data), "--policy", policy, "--weeks", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(experiment, "Warehouse", None)  # a week that starts fails
    out = tmp_path / "out"
    assert main(["simulate", "--data", str(data), "--policy", "fixed-zone", "--weeks", "1",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {data / 'items.csv'}: home zone 'Z9' of item {code} "
                            f"has no slot in {data / 'layout.csv'}\n")
    assert not out.exists()


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
def test_layout_without_a_storage_slot_exits_3_naming_it(tmp_path, capsys, policy):
    files = {
        "layout.csv": [",".join(LAYOUT_HEADER), "-1,0,0,0,0,0,anchor,-3"],
        "items.csv": [",".join(ITEMS_HEADER), "A,Z1,10"],
        "initial_inventory.csv": [",".join(INVENTORY_HEADER)],
        "orders.csv": [",".join(ORDERS_HEADER), "2024-06-03 08:00:00,O1,T1,A,2"],
    }
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", "--data", str(tmp_path), "--policy", policy, "--weeks", "1",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'layout.csv'}: the layout holds no storage slot\n"
    assert not out.exists()


@pytest.mark.parametrize("per_pallet, code", [(2 ** 53, 0), (2 ** 53 + 1, 3), (10 ** 400, 3)],
                         ids=["2**53", "2**53+1", "10**400"])
def test_a_pallet_size_above_2_to_the_53_exits_3_naming_its_line(tmp_path, capsys, per_pallet,
                                                                 code):
    """One full pallet of A and an order line of one piece less: the line's
    loose pieces are the pallet's less one, and up to a pallet of 2**53
    pieces their master cartons are priced as a float.  A larger pallet
    size is refused where ``items.csv`` gives it."""
    files = {
        "layout.csv": [",".join(LAYOUT_HEADER), "0,1,0,100,100,0,Z1,1"],
        "items.csv": [",".join(ITEMS_HEADER), f"A,Z1,{per_pallet}"],
        "initial_inventory.csv": [",".join(INVENTORY_HEADER), f"0,1,0,A,{per_pallet},2024-05-20"],
        "orders.csv": [",".join(ORDERS_HEADER), f"2024-06-03 08:00:00,O1,T1,A,{per_pallet - 1}"],
    }
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    assert main(["simulate", "--data", str(tmp_path), "--weeks", "1"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == (f"error: {tmp_path / 'items.csv'}:2: item A: qty_per_pallet "
                                "must be <= 2**53\n")
    else:
        assert captured.err == "" and "week 1: " in captured.out


@pytest.mark.parametrize("source", ["orders.csv", "config", "--seed", "--weeks",
                                    "gen-data --items"])
def test_a_number_of_more_than_4300_digits_exits_2_naming_its_source(dataset, tmp_path, capsys,
                                                                     source):
    """A number of 5,000 digits, more than Python converts, is refused on
    one line that names where it came from and says why, with no advice
    to change the interpreter's limit and without echoing the digits."""
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    argv = ["simulate", "--data", str(data), "--weeks", "1"]
    digits = "7" * 5000
    if source == "orders.csv":
        orders = data / "orders.csv"
        rows = orders.read_text().splitlines()
        rows[2] = ",".join(rows[2].split(",")[:4] + [digits])
        orders.write_text("\n".join(rows) + "\n")
        where = f"{orders}:3"
    elif source == "config":
        cfg = tmp_path / "big.json"
        cfg.write_text('{"BTpu": ' + digits + "}")
        argv += ["--config", str(cfg)]
        where = f"config {cfg}"
    elif source == "gen-data --items":
        argv = ["gen-data", "--out", str(tmp_path / "gen"), "--items", digits]
        where = "argument --items"
    else:
        argv += [source, digits]
        where = f"argument {source}"
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag's value
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: a number has more than 4,300 digits\n"


def test_unknown_config_key_exits_3(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"walk_speed": 2}))
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "1"]) == 3
    assert "unknown config field walk_speed" in capsys.readouterr().err


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_a_key_of_earlier_versions_exits_3_as_an_unknown_field(dataset, tmp_path, capsys,
                                                               key):
    """A config written for an earlier version that names a key no
    simulation reads, such as the time ceiling ``horizon_s`` or the
    handlift's ``sph``, runs nothing and writes nothing."""
    outer, _, inner = key.rpartition(".")
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({outer: {inner: 1}} if outer else {key: 1}))
    out = tmp_path / "out"
    assert main(["simulate", "--data", dataset, "--config", str(cfg), "--weeks", "1",
                 "--trace", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: unknown config field {key}\n")
    assert not out.exists()


@pytest.mark.parametrize("config, field", [
    ({"Lsps": 0}, "Lsps"),
    ({"Lsps": -1}, "Lsps"),
    ({"sps": 0}, "sps"),
])
def test_a_speed_that_is_not_positive_exits_3(dataset, tmp_path, capsys, config, field):
    """The stacker's speeds divide every leg's distance: a zero or negative
    speed is refused before anything runs."""
    cfg = tmp_path / "speed.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--data", dataset, "--config", str(cfg), "--weeks", "1"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {field} must be a positive number\n")


def test_weeks_beyond_the_data_exit_3(dataset, tmp_path, capsys):
    assert main(["simulate", "--data", dataset, "--weeks", "3",
                 "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: week 3 has no orders: ")
    assert captured.err.endswith(" spans 2 week(s)\n")
    assert not any(tmp_path.iterdir())


def test_a_huge_weeks_count_exits_3_without_a_bucket_per_week(dataset, tmp_path, capsys):
    """The empty week is found from the orders' span, so a run over a million
    weeks allocates no bucket per requested week before it is refused."""
    tracemalloc.start()
    try:
        rc = main(["simulate", "--data", dataset, "--weeks", "1000000",
                   "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: week 3 has no orders: {Path(dataset) / 'orders.csv'} "
                            "spans 2 week(s)\n")
    assert peak < 4 * 2**20, f"peak of {peak} bytes traced"
    assert not any(tmp_path.iterdir())


def test_config_not_json_exits_2(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "1"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_a_week_that_never_finishes_names_the_line_the_picker_waits_for(tmp_path, capsys):
    """The README quick-start dataset with every second initial pallet given
    to the most-ordered item (its pieces cut to that item's pallet size):
    under fixed storage the fallback fills another item's slots, and the
    picker waits at a short line of that item, which no visit can restock.
    The week stops at the picker's first resume, and the error names the
    line and the item whose pallets fill the slots."""
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--items", "25", "--slots", "120",
                 "--lines", "600", "--weeks", "4"]) == 0
    per_pallet = {code: int(qpp) for code, _, qpp in
                  (row.split(",") for row in (data / "items.csv").read_text().splitlines()[1:])}
    ordered = [row.split(",")[3] for row in (data / "orders.csv").read_text().splitlines()[1:]]
    code = min(set(ordered), key=lambda item: (-ordered.count(item), item))
    header, *rows = [row.split(",") for row in
                     (data / "initial_inventory.csv").read_text().splitlines()]
    for row in rows[1::2]:
        row[3:5] = [code, str(min(int(row[4]), per_pallet[code]))]
    (data / "initial_inventory.csv").write_text(
        "".join(",".join(row) + "\n" for row in [header, *rows]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"walking": {"mode": "distance"}}))
    capsys.readouterr()
    assert main(["simulate", "--data", str(data), "--config", str(cfg), "--policy", "fixed",
                 "--picking", "area", "--weeks", "1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: scenario fixed-homogeneous-area week 1: cannot finish: at t=301.27777777777777 s "
        "the picker is waiting for order ORD-W1-00001, line index 3, item SKU0003, at slot "
        "(0, 2, 2), and no visit can restock SKU0003: its candidate slots hold pallets of "
        "SKU0017")


def test_weeks_cut_short_ignore_the_later_orders(tmp_path):
    """``--weeks 2`` on four weeks of orders runs as on a file that holds
    only the first two: the dropped weeks size no slot map and rank no
    initial pallet."""
    full = tmp_path / "full"
    assert main(["gen-data", "--out", str(full), "--seed", "5", "--items", "25",
                 "--slots", "120", "--lines", "600", "--weeks", "4"]) == 0
    cut = tmp_path / "cut"
    shutil.copytree(full, cut)
    header, *rows = (full / "orders.csv").read_text().splitlines(keepends=True)
    start = min(date.fromisoformat(row[:10]) for row in rows)
    kept = [row for row in rows if (date.fromisoformat(row[:10]) - start).days < 14]
    assert 0 < len(kept) < len(rows)
    (cut / "orders.csv").write_text(header + "".join(kept))
    for policy, allocation in (("fixed", ["--allocation", "demand"]), ("random", [])):
        written = []
        for data in (full, cut):
            out = tmp_path / f"{policy}-{data.name}"
            assert main(["simulate", "--data", str(data), "--policy", policy, *allocation,
                         "--weeks", "2", "--seed", "7", "--out", str(out)]) == 0
            written.append((out / "results.csv").read_bytes())
        assert written[0] == written[1], policy


# -- installed console script --------------------------------------------


def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "picksim.cli", "gen-data", "--out",
         str(tmp_path), "--items", "4", "--slots", "12", "--lines", "8",
         "--weeks", "1"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "orders:" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_standard_output_exits_2_on_one_line(tmp_path, unbuffered):
    """A reader that has gone away, whether a print or the last flush meets
    it, ends the command with exit 2 and one ``error:`` line, not a
    ``BrokenPipeError`` traceback."""
    weekly = _weekly_file(tmp_path, "a", [10.0, 12.0, 11.0])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "picksim.cli", "stats", "--weekly", weekly],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env={**child_env(), "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to standard output: [Errno 32] Broken pipe\n"


DEFERRED = ("logging", "json", "statistics", "hashlib", "_hashlib")


def test_cli_import_leaves_scipy_unloaded():
    """Nor does it load ``dataclasses`` and the ``inspect`` it imports, or the
    standard-library modules a run imports where it first uses them
    (``DEFERRED``): every CLI process would pay for them before its first
    event."""
    code = ("import sys, picksim.cli; print([m for m in ('scipy', 'dataclasses', 'inspect', "
            f"*{DEFERRED!r}) if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_LOADED_AFTER_A_RUN = """
import contextlib, io, sys
from picksim.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(code, sorted(m for m in sys.argv[1].split(",") if m in sys.modules))
"""


@pytest.mark.parametrize("command, extra, loaded", [
    ("simulate", ["--weeks", "1"], []),
    ("compare", ["--weeks", "2"], ["statistics"]),
    ("simulate", ["--weeks", "1", "--config", "{config}"], ["json"]),
], ids=["simulate", "compare", "simulate-with-config"])
def test_a_run_loads_only_the_modules_it_uses(dataset, tmp_path, command, extra, loaded):
    """A one-week ``simulate`` without ``--config`` logs, summarises and reads
    no JSON, so it ends without any of ``DEFERRED``; ``compare`` summarises
    and so loads ``statistics`` only; a config file brings in ``json``."""
    config = tmp_path / "config.json"
    config.write_text("{}")
    argv = [command, "--data", dataset, *[a.format(config=config) for a in extra]]
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER_A_RUN, ",".join(DEFERRED),
                           *argv], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"0 {loaded}\n"


_SKIPPED_VISITS_RUN = """
import contextlib, io, sys
from picksim import storage
from picksim.cli import main

skipped = 0
put_away = storage.StoragePolicy.put_away

def counted(self, *args):
    global skipped
    assignment = put_away(self, *args)
    skipped += assignment is None
    return assignment

storage.StoragePolicy.put_away = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, skipped > 0, "logging" in sys.modules)
"""


def test_a_run_that_skips_visits_leaves_logging_unloaded(dataset, tmp_path):
    """Before ``logging`` is imported no handler or level can show the INFO
    record of a skipped replenishment visit, so the run does not import it
    to drop the record."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"replenish": {"mu_s": 1.0, "t_min_s": 1.0}}))
    proc = subprocess.run(
        [sys.executable, "-c", _SKIPPED_VISITS_RUN, "simulate", "--data", dataset,
         "--weeks", "1", "--config", str(config)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True False\n"


def test_cli_import_leaves_the_dataset_generator_unloaded():
    """``gen-data`` imports the generator itself; the package still exports
    ``generate_data`` and every other name in ``__all__``."""
    code = ("import sys, picksim.cli; print('picksim.datagen' in sys.modules); "
            "import picksim; print([n for n in picksim.__all__ if not hasattr(picksim, n)]); "
            "from picksim import generate_data; print(generate_data.__module__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n[]\npicksim.datagen\n"


_BLOCKED_SCIPY_RUN = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from picksim.cli import main

codes = [
    main(["gen-data", "--out", "data", "--seed", "3", "--items", "6", "--slots", "30",
          "--lines", "80", "--weeks", "4"]),
    main(["compare", "--data", "data", "--weeks", "4", "--out", "cmp"]),
]
for name, values in (("a", [103, 143, 122, 97]), ("b", [148, 150, 129, 135])):
    with open(f"{name}.csv", "w") as fh:
        fh.write("week,metric\\n" + "".join(f"{w},{v}\\n" for w, v in enumerate(values, 1)))
codes.append(main(["stats", "--weekly", "a.csv", "b.csv"]))
print(codes, "scipy" in sys.modules, file=sys.stderr)
"""


def test_runtime_needs_no_scipy(tmp_path):
    """gen-data, compare and stats run with scipy unimportable, load no part of
    it and print what they print with it importable."""
    stdout = {}
    for mode in ("block", "allow"):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", _BLOCKED_SCIPY_RUN, mode], cwd=cwd,
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[0, 0, 0] False\n", proc.stderr
        stdout[mode] = proc.stdout
    assert "paired t-test: statistic=2.4102 df=3 p=0.0950" in stdout["block"]
    assert stdout["block"] == stdout["allow"]


# -- README ---------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_commands() -> list[str]:
    """Commands of the README's quick-start block, continuation lines joined."""
    section = README.read_text().split("## Quick start", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands: list[str] = []
    pending = ""
    for line in block.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.endswith("\\"):
            pending += line[:-1]
            continue
        commands.append(pending + line)
        pending = ""
    return commands


def test_readme_quick_start_runs(tmp_path, capsys, monkeypatch):
    commands = _quick_start_commands()
    assert sum(c.startswith("picksim ") for c in commands) == 4
    monkeypatch.chdir(tmp_path)
    for command in commands:
        if command.startswith("picksim "):
            assert main(shlex.split(command)[1:]) == 0, command
        else:
            subprocess.run(command, shell=True, check=True)
    printed = capsys.readouterr().out.splitlines()[-3:]
    assert "\n".join(printed) in README.read_text(), "the README shows what step 4 prints"


def test_readme_python_api_block_runs(tmp_path, capsys, monkeypatch):
    """The README's Python API block, on the quick start's ``gen-data`` demo
    data, prints four weekly metrics and their total."""
    section = README.read_text().split("### Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    gen_data = _quick_start_commands()[0]
    assert gen_data.startswith("picksim gen-data --out demo/data "), gen_data
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(gen_data)[1:]) == 0
    capsys.readouterr()
    exec(compile(block, "README.md", "exec"), {})
    metrics, total = capsys.readouterr().out.rstrip("\n").rsplit(" ", 1)
    weekly = ast.literal_eval(metrics)
    assert len(weekly) == 4 and all(m > 0 for m in weekly)
    assert float(total) == sum(weekly)


def test_readme_dataset_headers_are_the_loaders_headers():
    section = README.read_text().split("## Dataset files", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            documented[cells[0].strip("`")] = cells[1].strip("`").split(",")
    assert documented == HEADERS


def test_stats_example_script_prints_the_readme_figures():
    """``scripts/stats_example.py`` runs and reproduces the gap and p-value
    that the README quotes for the two reference series."""
    proc = subprocess.run([sys.executable, str(README.parent / "scripts" / "stats_example.py")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "gap of totals (B vs A): 20.86%\n" in proc.stdout
    assert "paired t-test: statistic=2.4102 df=3 p=0.0950\n" in proc.stdout
    readme = README.read_text()
    assert "gap=20.86%" in readme and "statistic=2.4102 df=3 p=0.0950" in readme
