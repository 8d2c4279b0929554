"""Metamorphic relations on the golden dataset (transforms in
``metamorphic.py``).

Every policy x picking run of the golden tables, and fixed storage under
demand allocation, runs with ``--trace`` under constant walking and under
distance walking with sampled replenishment, on the golden dataset and
on each transformed copy of it (the coordinate scaling under a copy of
each config with the equipment speeds scaled alike).  Each pair of runs
must keep the transform's relation.

One relation transforms the config alone: doubling every duration of
the config (turn, base and handling times, the horizon, the walking
constant, the replenishment mean, spread and floor) and the seconds of a
simulated day, and halving every speed, doubles every time a run writes
and leaves every other output cell as it was.  Doubling and halving are
exact in binary floating point, so the relation holds bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from metamorphic import (
    IDENTITY_SHUFFLES,
    relabel_items,
    row_first,
    scale_layout,
    shift_orders,
    shuffle_lines,
    shuffle_rows,
)
from picksim import SimConfig, experiment, replenishment
from picksim.cli import main
from reference_orders import pick_sequence, read_orders, week_buckets
from test_golden import DATA_ARGS, DISTANCE_CONFIG

RUNS = [("fixed", "area", "homogeneous"), ("fixed", "zoning", "homogeneous"),
        ("random", "area", None), ("random", "zoning", None),
        ("fixed-zone", "area", None), ("fixed-zone", "zoning", None),
        ("fixed", "area", "demand")]
WALKING = {"constant": {}, "distance": DISTANCE_CONFIG}


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("metamorphic")
    assert main(["gen-data", "--out", str(root / "data")] + DATA_ARGS) == 0
    for walking, config in WALKING.items():
        (root / f"{walking}.json").write_text(json.dumps(config), encoding="utf-8")
    return root


def _outputs(root: Path, data: Path, walking: str, out: Path) -> list:
    """Per run of ``RUNS`` on ``data`` under the config file
    ``<root>/<walking>.json``: its stdout and every file it writes."""
    outputs = []
    for index, (policy, picking, allocation) in enumerate(RUNS):
        run_out = out / str(index)
        args = ["simulate", "--data", str(data), "--config", str(root / f"{walking}.json"),
                "--policy", policy, "--picking", picking, "--weeks", "2", "--seed", "7",
                "--out", str(run_out), "--trace"]
        if allocation is not None:
            args += ["--allocation", allocation]
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(args) == 0
        outputs.append((stdout.getvalue(),
                        {f.name: f.read_bytes() for f in sorted(run_out.iterdir())}))
    return outputs


@pytest.fixture(scope="module")
def original(root) -> dict[str, list]:
    return {walking: _outputs(root, root / "data", walking, root / f"original-{walking}")
            for walking in WALKING}


@pytest.mark.parametrize("walking", sorted(WALKING))
@pytest.mark.parametrize("name", IDENTITY_SHUFFLES)
def test_row_order_of_a_dataset_file_is_no_input(root, original, walking, name):
    data = shuffle_rows(root / "data", root / f"shuffled-{name}-{walking}", name, seed=7)
    assert (data / name).read_bytes() != (root / "data" / name).read_bytes()
    outputs = _outputs(root, data, walking, root / f"out-{name}-{walking}")
    for run, got, want in zip(RUNS, outputs, original[walking]):
        assert got == want, run


@pytest.mark.parametrize("walking", sorted(WALKING))
@pytest.mark.parametrize("days", [7, 364])
def test_moving_every_order_by_whole_weeks_changes_no_output(root, original, walking, days):
    data = shift_orders(root / "data", root / f"shifted-{days}-{walking}", days)
    outputs = _outputs(root, data, walking, root / f"out-shifted-{days}-{walking}")
    for run, got, want in zip(RUNS, outputs, original[walking]):
        assert got == want, run


@pytest.mark.parametrize("walking", sorted(WALKING))
def test_doubling_coordinates_and_speeds_changes_no_output(root, original, walking):
    data = scale_layout(root / "data", root / f"scaled-{walking}", 2.0)
    defaults = SimConfig()
    speeds = {name: 2.0 * getattr(defaults, name) for name in ("sph", "sps", "Lsps")}
    (root / f"scaled-{walking}.json").write_text(json.dumps({**WALKING[walking], **speeds}),
                                                encoding="utf-8")
    outputs = _outputs(root, data, f"scaled-{walking}", root / f"out-scaled-{walking}")
    for run, got, want in zip(RUNS, outputs, original[walking]):
        assert got == want, run


@pytest.mark.parametrize("walking", sorted(WALKING))
def test_relabelling_items_in_code_order_changes_no_output(root, original, walking):
    data = relabel_items(root / "data", root / f"relabelled-{walking}")
    outputs = _outputs(root, data, walking, root / f"out-relabelled-{walking}")
    for run, got, want in zip(RUNS, outputs, original[walking]):
        assert got == want, run


def _without_line_indices(files: dict[str, bytes]) -> dict[str, bytes]:
    """``files`` with every ``line=<k>;`` payload field cut from the traces."""
    return {name: re.sub(rb"line=\d+;", b"", data) if name.startswith("trace_") else data
            for name, data in files.items()}


@pytest.mark.parametrize("walking", sorted(WALKING))
def test_line_order_within_an_order_is_no_input(root, original, walking):
    data = shuffle_lines(root / "data", root / f"lines-{walking}", seed=7)
    assert (data / "orders.csv").read_bytes() != (root / "data" / "orders.csv").read_bytes()
    outputs = _outputs(root, data, walking, root / f"out-lines-{walking}")
    for run, (stdout, files), (want_stdout, want_files) in zip(RUNS, outputs,
                                                                original[walking]):
        assert stdout == want_stdout, run
        assert _without_line_indices(files) == _without_line_indices(want_files), run


DURATIONS = ("tth", "tts", "BTpu", "BTpa", "PMpu", "PPpu", "PPpa", "horizon_s")
SPEEDS = ("sph", "sps", "Lsps")
RESULT_TIMES = ("metric", "walk_s", "handle_s", "wait_s", "put_travel_s", "put_handle_s")


def _halved(data: bytes, columns: tuple[str, ...]) -> list[list[str]]:
    """The cells of a CSV output, each cell of ``columns`` halved."""
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
    at = [header.index(column) for column in columns]
    for row in rows:
        for i in at:
            row[i] = repr(float(row[i]) / 2.0)
    return [header, *rows]


@pytest.mark.parametrize("walking", sorted(WALKING))
def test_doubling_every_time_doubles_every_output_time(root, original, walking, monkeypatch):
    """The floor ``t_min_s`` is set, not derived: a derived floor clamped
    at 1 s would not double."""
    defaults = SimConfig()
    floor = replenishment.ReplenishmentSampler.from_config(defaults, 0).t_min_s
    config = WALKING[walking]
    scaled = {
        **config,
        **{name: 2.0 * getattr(defaults, name) for name in DURATIONS},
        **{name: getattr(defaults, name) / 2.0 for name in SPEEDS},
        "walking": {**config.get("walking", {}), "constant_s": 2.0 * defaults.walking.constant_s},
        "replenish": {**config.get("replenish", {}), "t_min_s": 2.0 * floor,
                      **{name: 2.0 * getattr(defaults.replenish, name)
                         for name in ("mu_s", "sigma_s")}},
    }
    (root / f"slow-{walking}.json").write_text(json.dumps(scaled), encoding="utf-8")
    monkeypatch.setattr(replenishment, "SECONDS_PER_DAY", 2.0 * replenishment.SECONDS_PER_DAY)
    outputs = _outputs(root, root / "data", f"slow-{walking}", root / f"out-slow-{walking}")
    for run, (_, files), (_, want_files) in zip(RUNS, outputs, original[walking]):
        written = [name for name in files if name == "results.csv" or name.startswith("trace_")]
        assert len(written) == 3, run
        for name in written:
            columns = RESULT_TIMES if name == "results.csv" else ("time",)
            assert _halved(files[name], columns) == _halved(want_files[name], ()), (run, name)


def _sequenced_run(data: Path, config: Path, out: Path,
                   monkeypatch) -> tuple[list[list[str]], bytes]:
    """The order numbers of each week's plan, in pick sequence, and the
    ``results.csv`` of a fixed/area run on ``data`` under ``config``."""
    plans = []
    run_week = experiment.run_week

    def spy(*args):
        session, engine = run_week(*args)
        plans.append([entry.order.order_no for entry in session.plan])
        return session, engine

    monkeypatch.setattr(experiment, "run_week", spy)
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--data", str(data), "--config", str(config), "--policy",
                     "fixed", "--picking", "area", "--weeks", "2", "--seed", "7",
                     "--out", str(out)]) == 0
    return plans, (out / "results.csv").read_bytes()


def _file_sequence(data: Path) -> list[list[str]]:
    """Each week's pick sequence by the README rule, read from the file."""
    reading = read_orders(str(data / "orders.csv"), _codes(data))
    assert reading.bad_line is None
    weeks = week_buckets(reading.orders)
    return [pick_sequence(weeks[week]) for week in sorted(weeks)]


def _codes(data: Path) -> set[str]:
    with open(data / "items.csv", newline="", encoding="utf-8") as fh:
        return {row[0] for row in list(csv.reader(fh))[1:]}


def test_the_row_order_of_orders_sets_the_pick_sequence(root, monkeypatch):
    """Trucks come in the order of their first row and each truck's orders
    in reverse file order; moving the first row of week 1's second truck to
    the top of the file makes that truck the first, and the results change.
    At the default visit rate this move leaves the golden results as they
    were: the weeks are supply-bound, so the last order waits for the last
    pallet whatever the sequence.  So the runs visit every 120 s."""
    data = root / "data"
    config = root / "unbound.json"
    config.write_text(json.dumps({"replenish": {"mu_s": 120.0}}), encoding="utf-8")
    plans, results = _sequenced_run(data, config, root / "out-sequence", monkeypatch)
    assert plans == _file_sequence(data)
    with open(data / "orders.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    week_1 = week_buckets(read_orders(str(data / "orders.csv"), _codes(data)).orders)[0]
    second = next(order for order in week_1 if order.truck_id != week_1[0].truck_id)
    index = next(k for k, row in enumerate(rows) if row[1] == second.order_no)
    moved = row_first(data, root / "moved-row", index)
    moved_plans, moved_results = _sequenced_run(moved, config, root / "out-moved-row",
                                                monkeypatch)
    assert moved_plans == _file_sequence(moved)
    assert moved_plans[0] != plans[0]
    assert moved_results != results
