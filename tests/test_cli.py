"""Command-line interface: end-to-end runs, output formats, exit codes."""

from __future__ import annotations

import json
import shlex
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from picksim import experiment
from picksim.cli import main
from picksim.picking import ORDERS_HEADER
from picksim.warehouse import INVENTORY_HEADER, ITEMS_HEADER, LAYOUT_HEADER
from conftest import child_env


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("PICKSIM_SEED", raising=False)


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


def test_gen_data_beyond_supply_exits_3(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path), "--items", "1", "--slots", "1",
                 "--lines", "20000", "--weeks", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: week 1 demand ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir()), "nothing may be written before the rejection"


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
        {"replenish": {"mode": "sampled", "mu_s": 300.0, "sigma_s": 90.0}}))
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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"replenish": {"mode": "sampled", "mu_s": 300.0, "sigma_s": 90.0,
                       "seed": 2}}))

    def trace_of(label: str, *extra: str) -> bytes:
        out = tmp_path / label
        assert main(["simulate", "--data", dataset, "--weeks", "1",
                     "--name", "t", "--trace", "--out", str(out),
                     *extra]) == 0
        capsys.readouterr()
        return (out / "trace_t_week1.csv").read_bytes()

    cfg_arg = ("--config", str(cfg))
    ref1 = trace_of("s1", *cfg_arg, "--seed", "1")
    ref2 = trace_of("s2", *cfg_arg, "--seed", "2")
    assert ref1 != ref2

    # flag beats the config file's pinned seed
    assert trace_of("flag", *cfg_arg, "--seed", "1") == ref1
    # config file beats the environment
    monkeypatch.setenv("PICKSIM_SEED", "1")
    assert trace_of("cfgwins", *cfg_arg) == ref2
    # environment beats the built-in default
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(
        {"replenish": {"mode": "sampled", "mu_s": 300.0, "sigma_s": 90.0}}))
    assert trace_of("env", "--config", str(cfg2)) == ref1


def test_bad_env_seed_is_a_usage_error(dataset, capsys, monkeypatch):
    monkeypatch.setenv("PICKSIM_SEED", "not-a-number")
    assert main(["simulate", "--data", dataset, "--weeks", "1"]) == 2
    assert "PICKSIM_SEED" in capsys.readouterr().err


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
    cfg.write_text(json.dumps({"sph": -4}))
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "1"]) == 3
    assert "sph" in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    ({"replenish": {"mu_s": "x"}}, "replenish.mu_s"),
    ({"replenish": {"sigma_s": None}}, "replenish.sigma_s"),
    ({"metric_unit": []}, "metric_unit"),
])
def test_config_value_of_the_wrong_type_exits_3(dataset, tmp_path, capsys, config, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1


def test_distance_walking_with_a_handlift_on_several_levels_exits_3(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"walking": {"mode": "distance", "equipment": "handlift"}}))
    out = tmp_path / "out"
    assert main(["simulate", "--data", dataset, "--config", str(cfg), "--weeks", "2",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: walking.equipment=handlift cannot lift")
    assert captured.err.count("\n") == 1
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
    data = _edited_dataset(dataset, tmp_path, "initial_inventory.csv", 3,
                           lambda cells: cells[:4] + ["0"] + cells[5:])
    assert main(["simulate", "--data", str(data), "--weeks", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'initial_inventory.csv'}:3: initial pallet of ")
    assert err.endswith(": qty must be >= 1, got 0\n")


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
    monkeypatch.setattr(experiment, "_run_week", None)  # a week that starts fails
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


def test_unknown_config_key_exits_3(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"walk_speed": 2}))
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "1"]) == 3
    assert "unknown config field walk_speed" in capsys.readouterr().err


def test_legacy_config_keys_load_with_one_warning(dataset, tmp_path):
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"h": 3, "LR": 2}))
    plain = tmp_path / "plain.json"
    plain.write_text("{}")
    runs = []
    for cfg in (legacy, plain):
        runs.append(subprocess.run(
            [sys.executable, "-m", "picksim.cli", "simulate", "--data", dataset,
             "--weeks", "1", "--config", str(cfg)],
            capture_output=True, text=True, env=child_env(),
        ))
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stderr == "config fields LR, h are no longer used and were ignored\n"
    assert runs[1].stderr == ""
    assert runs[0].stdout == runs[1].stdout


def test_weeks_beyond_the_data_exit_3(dataset, tmp_path, capsys):
    assert main(["simulate", "--data", dataset, "--weeks", "3",
                 "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: week 3 has no orders: ")
    assert captured.err.endswith(" spans 2 week(s)\n")
    assert not any(tmp_path.iterdir())


def test_config_not_json_exits_2(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "1"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_infeasible_horizon_exits_1(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon_s": 10.0}))
    assert main(["simulate", "--data", dataset, "--config", str(cfg),
                 "--weeks", "2"]) == 1
    assert "horizon" in capsys.readouterr().err


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
    for policy in ("fixed", "random"):
        written = []
        for data in (full, cut):
            out = tmp_path / f"{policy}-{data.name}"
            assert main(["simulate", "--data", str(data), "--policy", policy,
                         "--allocation", "demand", "--weeks", "2", "--seed", "7",
                         "--out", str(out)]) == 0
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


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, picksim.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
