"""Metamorphic relations on the golden dataset (transforms in
``metamorphic.py``).

Every policy x picking run of the golden tables, and fixed storage under
demand allocation, runs with ``--trace`` under sampled replenishment, on
the golden dataset and on each transformed copy of it (the coordinate
scaling under a copy of the config with the equipment speeds scaled
alike).  Each pair of runs
must keep the transform's relation.

One relation transforms the config alone: doubling every duration of
the config (turn, base and handling times, the replenishment mean,
spread and floor) and the seconds of a
simulated day, and halving every speed, doubles every time a run writes
and leaves every other output cell as it was.  Doubling and halving are
exact in binary floating point, so the relation holds bit for bit.  It
runs on the golden dataset and on the restock-date world below, whose
results depend on the day each restocked pallet is dated, so a day that
is not scaled with the other times breaks it there.

The restock-date world has one item and two slots: ``N`` (route
position 0, nearer the receiving elevator) and ``F`` (position 1).  An
old pallet on ``N`` and four orders, each walked by a stacker so slow
that it takes a little longer than a visit interval, let the visits
restock ``F`` (pallet 1), then ``N`` once the old pallet
has drained (pallet 2), and then, after a third order has drained one of
the two, the slot it left.  Picks take the oldest pallet, ties by route
position: pallet 2 drains first when both are dated the same day, and
pallet 1 when it is a day older.  So the third put-away travels to
``N`` or ``F``, and ``put_travel_s`` shows which.
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
from picksim import SimConfig, config_from_dict, experiment, replenishment, travel_time
from picksim.warehouse import load_layout
from picksim.cli import main
from reference_orders import pick_sequence, read_orders, week_buckets
from test_golden import DISTANCE_CONFIG

RUNS = [("fixed", "area", "homogeneous"), ("fixed", "zoning", "homogeneous"),
        ("random", "area", None), ("random", "zoning", None),
        ("fixed-zone", "area", None), ("fixed-zone", "zoning", None),
        ("fixed", "area", "demand")]
WALKING = {"distance": DISTANCE_CONFIG}


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> Path:
    """The directory of this module's config files, transformed datasets
    and outputs; the golden dataset itself is only read."""
    root = tmp_path_factory.mktemp("metamorphic")
    for walking, config in WALKING.items():
        (root / f"{walking}.json").write_text(json.dumps(config), encoding="utf-8")
    return root


def _outputs(root: Path, data: Path, walking: str, out: Path, weeks: int = 2) -> list:
    """Per run of ``RUNS`` of ``weeks`` on ``data`` under the config file
    ``<root>/<walking>.json``: its stdout and every file it writes."""
    outputs = []
    for index, (policy, picking, allocation) in enumerate(RUNS):
        run_out = out / str(index)
        args = ["simulate", "--data", str(data), "--config", str(root / f"{walking}.json"),
                "--policy", policy, "--picking", picking, "--weeks", str(weeks), "--seed", "7",
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
def original(root, golden_dataset) -> dict[str, list]:
    return {walking: _outputs(root, golden_dataset, walking, root / f"original-{walking}")
            for walking in WALKING}


@pytest.mark.parametrize("walking", sorted(WALKING))
@pytest.mark.parametrize("name", IDENTITY_SHUFFLES)
def test_row_order_of_a_dataset_file_is_no_input(root, golden_dataset, original, walking, name):
    data = shuffle_rows(golden_dataset, root / f"shuffled-{name}-{walking}", name, seed=7)
    assert (data / name).read_bytes() != (golden_dataset / name).read_bytes()
    outputs = _outputs(root, data, walking, root / f"out-{name}-{walking}")
    for run, got, want in zip(RUNS, outputs, original[walking]):
        assert got == want, run


@pytest.mark.parametrize("walking", sorted(WALKING))
@pytest.mark.parametrize("days", [7, 364])
def test_moving_every_order_by_whole_weeks_changes_no_output(root, golden_dataset, original,
                                                            walking, days):
    data = shift_orders(golden_dataset, root / f"shifted-{days}-{walking}", days)
    outputs = _outputs(root, data, walking, root / f"out-shifted-{days}-{walking}")
    for run, got, want in zip(RUNS, outputs, original[walking]):
        assert got == want, run


@pytest.mark.parametrize("walking", sorted(WALKING))
def test_doubling_coordinates_and_speeds_changes_no_output(root, golden_dataset, original,
                                                          walking):
    data = scale_layout(golden_dataset, root / f"scaled-{walking}", 2.0)
    defaults = SimConfig()
    speeds = {name: 2.0 * getattr(defaults, name) for name in ("sps", "Lsps")}
    (root / f"scaled-{walking}.json").write_text(json.dumps({**WALKING[walking], **speeds}),
                                                encoding="utf-8")
    outputs = _outputs(root, data, f"scaled-{walking}", root / f"out-scaled-{walking}")
    for run, got, want in zip(RUNS, outputs, original[walking]):
        assert got == want, run


@pytest.mark.parametrize("walking", sorted(WALKING))
def test_relabelling_items_in_code_order_changes_no_output(root, golden_dataset, original,
                                                          walking):
    data = relabel_items(golden_dataset, root / f"relabelled-{walking}")
    outputs = _outputs(root, data, walking, root / f"out-relabelled-{walking}")
    for run, got, want in zip(RUNS, outputs, original[walking]):
        assert got == want, run


def _without_line_indices(files: dict[str, bytes]) -> dict[str, bytes]:
    """``files`` with every ``line=<k>;`` payload field cut from the traces."""
    return {name: re.sub(rb"line=\d+;", b"", data) if name.startswith("trace_") else data
            for name, data in files.items()}


@pytest.mark.parametrize("walking", sorted(WALKING))
def test_line_order_within_an_order_is_no_input(root, golden_dataset, original, walking):
    data = shuffle_lines(golden_dataset, root / f"lines-{walking}", seed=7)
    assert (data / "orders.csv").read_bytes() != (golden_dataset / "orders.csv").read_bytes()
    outputs = _outputs(root, data, walking, root / f"out-lines-{walking}")
    for run, (stdout, files), (want_stdout, want_files) in zip(RUNS, outputs,
                                                                original[walking]):
        assert stdout == want_stdout, run
        assert _without_line_indices(files) == _without_line_indices(want_files), run


DURATIONS = ("tts", "BTpu", "BTpa", "PMpu", "PPpu", "PPpa")
SPEEDS = ("sps", "Lsps")
RESULT_TIMES = ("metric", "walk_s", "handle_s", "wait_s", "put_travel_s", "put_handle_s")


def _halved(data: bytes, columns: tuple[str, ...]) -> list[list[str]]:
    """The cells of a CSV output, each cell of ``columns`` halved."""
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
    at = [header.index(column) for column in columns]
    for row in rows:
        for i in at:
            row[i] = repr(float(row[i]) / 2.0)
    return [header, *rows]


def _slowed(config: dict) -> dict:
    """``config`` with every duration doubled and every speed halved.  The
    floor ``t_min_s`` is set, not derived: a derived floor clamped at 1 s
    would not double."""
    cfg = config_from_dict(config)
    floor = replenishment.ReplenishmentSampler.from_config(cfg, 0).t_min_s
    return {
        **config,
        **{name: 2.0 * getattr(cfg, name) for name in DURATIONS},
        **{name: getattr(cfg, name) / 2.0 for name in SPEEDS},
        "replenish": {**config.get("replenish", {}), "t_min_s": 2.0 * floor,
                      **{name: 2.0 * getattr(cfg.replenish, name)
                         for name in ("mu_s", "sigma_s")}},
    }


def _check_doubled_times(root: Path, data: Path, name: str, original: list, monkeypatch,
                         weeks: int = 2) -> None:
    """The runs of ``RUNS`` on ``data`` under ``<root>/<name>.json`` slowed by
    ``_slowed``, with a simulated day twice as long, write every time of
    ``original``'s runs doubled and every other cell as it was."""
    config = json.loads((root / f"{name}.json").read_text(encoding="utf-8"))
    (root / f"slow-{name}.json").write_text(json.dumps(_slowed(config)), encoding="utf-8")
    monkeypatch.setattr(replenishment, "SECONDS_PER_DAY", 2.0 * replenishment.SECONDS_PER_DAY)
    outputs = _outputs(root, data, f"slow-{name}", root / f"out-slow-{name}", weeks)
    for run, (_, files), (_, want_files) in zip(RUNS, outputs, original):
        written = [name for name in files if name == "results.csv" or name.startswith("trace_")]
        assert len(written) == 1 + weeks, run
        for name in written:
            columns = RESULT_TIMES if name == "results.csv" else ("time",)
            assert _halved(files[name], columns) == _halved(want_files[name], ()), (run, name)


@pytest.mark.parametrize("walking", sorted(WALKING))
def test_doubling_every_time_doubles_every_output_time(root, golden_dataset, original, walking,
                                                      monkeypatch):
    _check_doubled_times(root, golden_dataset, walking, original[walking], monkeypatch)


# the restock-date world (module docstring): layout rows, then the dataset's other files
RESTOCK_LAYOUT = """row,layer,slot,x_cm,y_cm,z_cm,zone,seq_no
-1,0,0,0.0,0.0,0.0,anchor,-3
-1,0,1,0.0,60.0,0.0,anchor,-2
-1,0,2,60.0,0.0,0.0,anchor,-1
0,1,0,225.0,150.0,0.0,Z1,0
0,1,1,375.0,150.0,0.0,Z1,1
"""
RESTOCK_FILES = {
    "layout.csv": RESTOCK_LAYOUT,
    "items.csv": "item_code,home_zone,qty_per_pallet\nA,Z1,10\n",
    "initial_inventory.csv": "row,layer,slot,item_code,qty,mfg_date\n0,1,0,A,10,2024-05-01\n",
    # one order per truck, so the pick sequence is the file order
    "orders.csv": "order_datetime,order_no,truck_id,item_code,qty\n" + "".join(
        f"2024-06-03 09:00:00,O{k},T{k},A,{qty}\n" for k, qty in enumerate((1, 9, 10, 1), 1)),
}
N, F = (0, 1, 0), (0, 1, 1)
# visits every mu_s from mu_s on.  Every order is planned through N, where
# the only stock stands at the week's start: 375 cm in and 315 cm out, a
# turn each way, and 25 to 27 s of handling.  At sps 0.02 cm/s an order
# takes 34,500 s + 33 s or less, at 0.01 cm/s 69,000 s + 33 s or less,
# about 1.15 visit intervals; so order k picks between visits k - 1 and k
# for k up to 3, and the fourth, after visit 3, keeps the picker busy
# through it.  Same day: visits at 30,000 and 60,000 s date pallets 1 and 2
# alike; next day: at 60,000 and 120,000 s pallet 1 is a day older.  Value:
# the slots of the three put-aways.
RESTOCK_DAYS = {
    "same-day": ({"sps": 0.02, "replenish": {"mu_s": 30_000.0}}, (F, N, N)),
    "next-day": ({"sps": 0.01, "replenish": {"mu_s": 60_000.0}}, (F, N, F)),
}


@pytest.fixture(scope="module")
def restock_world(tmp_path_factory) -> Path:
    """A directory holding the restock-date dataset, ``data``, and one config
    file per case of ``RESTOCK_DAYS``."""
    root = tmp_path_factory.mktemp("restock")
    (root / "data").mkdir()
    for name, text in RESTOCK_FILES.items():
        (root / "data" / name).write_text(text, encoding="utf-8")
    for case, (config, _) in RESTOCK_DAYS.items():
        (root / f"{case}.json").write_text(json.dumps(config), encoding="utf-8")
    return root


@pytest.mark.parametrize("case", sorted(RESTOCK_DAYS))
def test_the_restock_date_decides_which_pallet_drains_first(restock_world, case):
    """Every policy x picking run of the restock-date world puts its three
    pallets where the dates say: the third goes to the slot of the pallet
    with the older date, or the lower route position on a tie."""
    root = restock_world
    config, slots = RESTOCK_DAYS[case]
    layout = load_layout(str(root / "data" / "layout.csv"))
    elevator = layout.anchors[(-1, 0, 2)]
    stacker = config_from_dict(config).stacker()
    expected = 0.0
    for slot in slots:
        expected += travel_time(elevator, layout.storage[slot], stacker)[1]
    for run, (_, files) in zip(RUNS, _outputs(root, root / "data", case,
                                                root / f"out-{case}", weeks=1)):
        [row] = csv.DictReader(io.StringIO(files["results.csv"].decode("utf-8")))
        # a turn into and out of N per order, and one per put-away
        assert (float(row["put_travel_s"]), row["turns"]) == (expected, "11"), run


@pytest.mark.parametrize("case", sorted(RESTOCK_DAYS))
def test_doubling_every_time_keeps_the_restock_dates(restock_world, case, monkeypatch):
    root = restock_world
    original = _outputs(root, root / "data", case, root / f"out-original-{case}", weeks=1)
    _check_doubled_times(root, root / "data", case, original, monkeypatch, weeks=1)


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


def test_the_row_order_of_orders_sets_the_pick_sequence(root, golden_dataset, monkeypatch):
    """Trucks come in the order of their first row and each truck's orders
    in reverse file order; moving the first row of week 1's second truck to
    the top of the file makes that truck the first, and the results change.
    At the default visit rate this move leaves the golden results as they
    were: the weeks are supply-bound, so the last order waits for the last
    pallet whatever the sequence.  So the runs visit every 120 s."""
    data = golden_dataset
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
