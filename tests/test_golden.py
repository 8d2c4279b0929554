"""Golden outputs: every policy x picking combination, byte for byte.

A small dataset is generated deterministically and each of the six
storage-policy x picking-mode combinations is simulated through the CLI
with ``--trace``.  The SHA-256 of every dataset file, ``results.csv`` and
per-week trace must equal the recorded value, so a change meant to be
output-neutral (a refactor or a speed-up) is checked for identity on
every run of the suite.  The hashes were recorded before the storage and
stock indices replaced the per-call scans; the ``results.csv`` ones were
re-recorded when its breakdown columns became walking / handling /
waiting / put-away time, and ``METRIC_COLUMNS`` pins its weekly metric
across that change.  The ``layout.csv``, ``items.csv`` and ``orders.csv``
hashes were re-recorded when the columns no run reads (a slot's
direction and parent, an item's category and weight, an order line's
weight) left the dataset format; each new file is the old one with those
columns cut out, and every simulation hash stayed as it was.

A deliberate change of output updates the table below and says why in
``CHANGES.md``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import pytest

from picksim import (
    AllocationRule,
    DataPaths,
    PickingMode,
    PolicyKind,
    ScenarioSpec,
    SimConfig,
    run_scenario,
)
from picksim.cli import main
from picksim.config import WalkSettings

DATA_ARGS = ["--seed", "4242", "--items", "12", "--slots", "60", "--lines", "200",
             "--weeks", "2"]

DATASET = {
    "layout.csv": "f708b0a9407dddf83547471c2928a198c5084a38ee00ca6da772472d39cfc046",
    "items.csv": "94da207032fa6eff100126f81c892a0e01552404627af245e947cd7ff39b00f1",
    "initial_inventory.csv": "6e81e7196075b1021d04c258e5f16c46b946208817e057005e650a6734862d9a",
    "orders.csv": "714aab6646a2e86558f34c549eb1c3043d165d49d6003aa4c17f76b171b0282c",
}

GOLDEN: dict[tuple[str, str], dict[str, str]] = {
    ("fixed", "area"): {
        "results.csv": "0db4b28b624f686e0c7b3d52465e2d3294660fe99a5b74d311ef4b240c8834ae",
        "summary.csv": "9b354db611f5ad1ba94ac33134c800e26e0d7513a951ae896c4b9ce6ab055d01",
        "trace_fixed-homogeneous-area_week1.csv": "b3c5a029cb1670816229a3d0d902d267d7d8f8667ec4c40ea891676bb0771607",
        "trace_fixed-homogeneous-area_week2.csv": "4cf7c63b1fe13b4a472cc7b75f886b6063530fd8ccceb4e0454111594bfa0aa9",
    },
    ("fixed", "zoning"): {
        "results.csv": "4534ec82d58e52f573155eebdd4bc5cda9648ab0b532a7a2f5446d16f456103e",
        "summary.csv": "001491fa20df953db43d3d52aebcf1a149e8c946d53667dbdd3fa3c4f93ff804",
        "trace_fixed-homogeneous-zoning_week1.csv": "17049d4c2c7b4caf4c21c515709647a2f0b12e0aa0a30aae993c279e92e7ed84",
        "trace_fixed-homogeneous-zoning_week2.csv": "3be19a0c3f7e67a173af440de084fd86c0eee66ae833e28523d1dbd85f166488",
    },
    ("random", "area"): {
        "results.csv": "2bf6d8aaf6428dde829c8f8e979c7e0454637c24916059295ad9a7d1b4270ff9",
        "summary.csv": "5add4f60ff3f1ab82c72b0da4630039031aceebfc40d969fc313e1d41a165ad6",
        "trace_random-homogeneous-area_week1.csv": "394415c71f98b277aa91a03adfcc729eb25169a81edb943bd404db26b80a9682",
        "trace_random-homogeneous-area_week2.csv": "d1fb69168c2b9e68acdf4a7f510db78350ca53bbe9da75491842a79e95d02d2d",
    },
    ("random", "zoning"): {
        "results.csv": "3345e3b9e4dd77bb380dcb317668b0783e51756acac70f5430b26acf3233028f",
        "summary.csv": "322933721e10240cf8ecea294a41e7c784908d0564ffd1d64982ff2395a40341",
        "trace_random-homogeneous-zoning_week1.csv": "b78c6833951432c1652752fd51f2e90c9d2bbcb86cafd8b467c881771e63d06e",
        "trace_random-homogeneous-zoning_week2.csv": "2fd11ee4cd42c068284e51dbe0484cd055b3d8e6a21a02740b1a2176c7fb89b2",
    },
    ("fixed-zone", "area"): {
        "results.csv": "0a388ad792f6b0b4d0bd0cdd663e906048c03a75247464336b2e05582bed2629",
        "summary.csv": "e60f010a3143c99c59ce08d7c3396926533984b56295373e12be26ab7ee8dc1d",
        "trace_fixed-zone-homogeneous-area_week1.csv": "df0b2ea253f4ea1f5ea7a5a2e6ffed13cc8267dd436904e6128edfd2c2b6282d",
        "trace_fixed-zone-homogeneous-area_week2.csv": "638b3881f27f077fede5a13736dbd22277953bc5d82f15bbe3bdc4cba47399a7",
    },
    ("fixed-zone", "zoning"): {
        "results.csv": "2b3a5cccbc883651c4743700a319d9e16a8ad007c48142619fcf0a6b5ace5914",
        "summary.csv": "d122fb3198d761f7be33d16d8ee9035f827bfb72ea2e41926a187a8712475655",
        "trace_fixed-zone-homogeneous-zoning_week1.csv": "88d20bdd19775d365a133fc6cc1a50a3aaa845dde039e5af8830d0a235fec980",
        "trace_fixed-zone-homogeneous-zoning_week2.csv": "3fc6a4d894cd19921da47579cd15041486d17fe7866d0ee6848561df89ff3e11",
    },
}

# SHA-256 of the ``scenario,week,metric`` columns of each ``results.csv``
# (header included, one ``\n``-terminated line per row), recorded on
# c46eec4 before the cost breakdown columns were reworked.  The weekly
# metric is pinned by the oracle, so this table never changes with the
# breakdown.
METRIC_COLUMNS: dict[tuple[str, str], str] = {
    ("fixed", "area"): "ef08845eb88740ea285115712b7a1116f65cb2bead2bac944cc22819bc6e5cb7",
    ("fixed", "zoning"): "3333d2d0824dfb5c4599c53b0531c59a4d7c3b8e4348d26286d3757def9d3111",
    ("random", "area"): "3c1300b27a290741baa473c685e59a30da270acfa263b42794fa31a9ddea530c",
    ("random", "zoning"): "660420032b040554d7e0d3580caa817f1745aad79cf6fc3c073316dfdc0b6f43",
    ("fixed-zone", "area"): "77e780c45d8e5b4b2ca06be79b2958ecc3dbaf413f62d9a2d13d1891ffe8df89",
    ("fixed-zone", "zoning"): "ffcd778bad4abedb5e34283aaa3a77bd0c78cb37cf9fba019167157b99fd2a7d",
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_data")
    assert main(["gen-data", "--out", str(out)] + DATA_ARGS) == 0
    return out


def test_dataset_is_golden(dataset, capsys):
    capsys.readouterr()
    assert {name: _sha(dataset / name) for name in DATASET} == DATASET


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_simulation_outputs_are_golden(dataset, tmp_path, capsys, monkeypatch,
                                       policy, picking):
    monkeypatch.delenv("PICKSIM_SEED", raising=False)
    out = tmp_path / "run"
    rc = main(["simulate", "--data", str(dataset), "--policy", policy,
               "--picking", picking, "--weeks", "2", "--seed", "7",
               "--out", str(out), "--trace"])
    capsys.readouterr()
    assert rc == 0
    hashes = {f.name: _sha(f) for f in sorted(out.iterdir())}
    assert hashes == GOLDEN[(policy, picking)]


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_weekly_metrics_are_golden(dataset, tmp_path, capsys, monkeypatch, policy, picking):
    monkeypatch.delenv("PICKSIM_SEED", raising=False)
    out = tmp_path / "run"
    rc = main(["simulate", "--data", str(dataset), "--policy", policy,
               "--picking", picking, "--weeks", "2", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        columns = "".join(",".join(row[:3]) + "\n" for row in csv.reader(fh))
    assert hashlib.sha256(columns.encode()).hexdigest() == METRIC_COLUMNS[(policy, picking)]


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
@pytest.mark.parametrize("picking", ["area", "zoning"])
@pytest.mark.parametrize("walk_mode", ["constant", "distance"])
def test_picker_time_adds_up_to_the_last_completion(dataset, policy, picking, walk_mode):
    spec = ScenarioSpec(name="identity", policy=PolicyKind(policy),
                        allocation=AllocationRule.HOMOGENEOUS,
                        picking=PickingMode(picking), weeks=2, seed=7,
                        config=SimConfig(walking=WalkSettings(mode=walk_mode)),
                        data=DataPaths.from_dir(str(dataset)))
    for week in run_scenario(spec).weeks:
        t = week.totals
        assert t.walk_s > 0 and t.handle_s > 0
        assert math.isclose(week.completions[-1], t.walk_s + t.handle_s + t.wait_s,
                            rel_tol=1e-12), f"week {week.week}"
