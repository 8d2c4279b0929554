"""Metamorphic relations on the golden dataset (transforms in
``metamorphic.py``).

Every policy x picking run of the golden tables, and fixed storage under
demand allocation, runs with ``--trace`` under constant walking and under
distance walking with sampled replenishment, on the golden dataset and
on each transformed copy of it.  Each pair of runs must keep the
transform's relation.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from metamorphic import IDENTITY_SHUFFLES, shuffle_rows
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
    """Per run of ``RUNS`` on ``data``: its stdout and every file it writes."""
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
