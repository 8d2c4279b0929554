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
    scale_layout,
    shift_orders,
    shuffle_lines,
    shuffle_rows,
)
from picksim import SimConfig, replenishment
from picksim.cli import main
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
    config = WALKING[walking]
    scaled = {
        **config,
        **{name: 2.0 * getattr(defaults, name) for name in DURATIONS},
        **{name: getattr(defaults, name) / 2.0 for name in SPEEDS},
        "walking": {**config.get("walking", {}), "constant_s": 2.0 * defaults.walking.constant_s},
        "replenish": {**config.get("replenish", {}),
                      **{name: 2.0 * getattr(defaults.replenish, name)
                         for name in ("mu_s", "sigma_s", "t_min_s")}},
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
