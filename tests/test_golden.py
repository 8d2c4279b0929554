"""Golden outputs: every policy x picking combination, byte for byte.

A small dataset is generated deterministically and each of the six
storage-policy x picking-mode combinations is simulated through the CLI
with ``--trace``.  The SHA-256 of every dataset file, ``results.csv`` and
per-week trace must equal the recorded value, so a change meant to be
output-neutral (a refactor or a speed-up) is checked for identity on
every run of the suite.  The hashes were recorded before the storage and
stock indices replaced the per-call scans.

A deliberate change of output updates the table below and says why in
``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from picksim.cli import main

DATA_ARGS = ["--seed", "4242", "--items", "12", "--slots", "60", "--lines", "200",
             "--weeks", "2"]

DATASET = {
    "layout.csv": "a1c32b53c7beef77eee29bc272fb833f7049c8d80a55c6677748684b572eb223",
    "items.csv": "7536d14d3274da4c1c8937234803824d4687361d23face5ae3bd32e2ca89730d",
    "initial_inventory.csv": "6e81e7196075b1021d04c258e5f16c46b946208817e057005e650a6734862d9a",
    "orders.csv": "3af3484e6282cd527f2c1ef7dfe353da8c7b2e6088ff08f25a514eaa39a61550",
}

GOLDEN: dict[tuple[str, str], dict[str, str]] = {
    ("fixed", "area"): {
        "results.csv": "3aeab1a03b7a0851e1d035e5715f6db6e03f35abfe1f453ed9dbfe034cc538ad",
        "summary.csv": "9b354db611f5ad1ba94ac33134c800e26e0d7513a951ae896c4b9ce6ab055d01",
        "trace_fixed-homogeneous-area_week1.csv": "b3c5a029cb1670816229a3d0d902d267d7d8f8667ec4c40ea891676bb0771607",
        "trace_fixed-homogeneous-area_week2.csv": "4cf7c63b1fe13b4a472cc7b75f886b6063530fd8ccceb4e0454111594bfa0aa9",
    },
    ("fixed", "zoning"): {
        "results.csv": "2b42426d88d703062a246829c8412eedeef62eddee79a97cc8a2d9014a41d63e",
        "summary.csv": "001491fa20df953db43d3d52aebcf1a149e8c946d53667dbdd3fa3c4f93ff804",
        "trace_fixed-homogeneous-zoning_week1.csv": "17049d4c2c7b4caf4c21c515709647a2f0b12e0aa0a30aae993c279e92e7ed84",
        "trace_fixed-homogeneous-zoning_week2.csv": "3be19a0c3f7e67a173af440de084fd86c0eee66ae833e28523d1dbd85f166488",
    },
    ("random", "area"): {
        "results.csv": "e9bc910c633f57b65854c3402e06962406adc3f4bc06f94640e81bb235a0a966",
        "summary.csv": "5add4f60ff3f1ab82c72b0da4630039031aceebfc40d969fc313e1d41a165ad6",
        "trace_random-homogeneous-area_week1.csv": "394415c71f98b277aa91a03adfcc729eb25169a81edb943bd404db26b80a9682",
        "trace_random-homogeneous-area_week2.csv": "d1fb69168c2b9e68acdf4a7f510db78350ca53bbe9da75491842a79e95d02d2d",
    },
    ("random", "zoning"): {
        "results.csv": "a50694427b557c9b97b70c637732f105bb795c76513e31fe7cff739b30f4c0c4",
        "summary.csv": "322933721e10240cf8ecea294a41e7c784908d0564ffd1d64982ff2395a40341",
        "trace_random-homogeneous-zoning_week1.csv": "b78c6833951432c1652752fd51f2e90c9d2bbcb86cafd8b467c881771e63d06e",
        "trace_random-homogeneous-zoning_week2.csv": "2fd11ee4cd42c068284e51dbe0484cd055b3d8e6a21a02740b1a2176c7fb89b2",
    },
    ("fixed-zone", "area"): {
        "results.csv": "36f7741fefd4e19519fc1c4ad58e9efedeb3de6b2a4cb2c696c6a1619a58c4d1",
        "summary.csv": "e60f010a3143c99c59ce08d7c3396926533984b56295373e12be26ab7ee8dc1d",
        "trace_fixed-zone-homogeneous-area_week1.csv": "df0b2ea253f4ea1f5ea7a5a2e6ffed13cc8267dd436904e6128edfd2c2b6282d",
        "trace_fixed-zone-homogeneous-area_week2.csv": "638b3881f27f077fede5a13736dbd22277953bc5d82f15bbe3bdc4cba47399a7",
    },
    ("fixed-zone", "zoning"): {
        "results.csv": "e1e089d6fef53cff6c7f96a255ee029775670a84d5a87bcfc31425b17c0d0f95",
        "summary.csv": "d122fb3198d761f7be33d16d8ee9035f827bfb72ea2e41926a187a8712475655",
        "trace_fixed-zone-homogeneous-zoning_week1.csv": "88d20bdd19775d365a133fc6cc1a50a3aaa845dde039e5af8830d0a235fec980",
        "trace_fixed-zone-homogeneous-zoning_week2.csv": "3fc6a4d894cd19921da47579cd15041486d17fe7866d0ee6848561df89ff3e11",
    },
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
