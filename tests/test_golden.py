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

``GOLDEN`` and ``METRIC_COLUMNS`` were re-recorded when distance walking
became the only walking model (the default had charged a constant per
route segment): each hash is that of the same run on f722c7c with
``{"walking": {"mode": "distance"}}`` as its config.

``GOLDEN_DISTANCE`` pins the same six runs under sampled replenishment;
it was recorded on 5dc188e, before the picker's traversal started to
keep its totals in running locals.

A deliberate change of output updates the tables below and says why in
``CHANGES.md``.
"""

from __future__ import annotations

import csv
import hashlib
import json
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

DATASET = {
    "layout.csv": "f708b0a9407dddf83547471c2928a198c5084a38ee00ca6da772472d39cfc046",
    "items.csv": "94da207032fa6eff100126f81c892a0e01552404627af245e947cd7ff39b00f1",
    "initial_inventory.csv": "6e81e7196075b1021d04c258e5f16c46b946208817e057005e650a6734862d9a",
    "orders.csv": "714aab6646a2e86558f34c549eb1c3043d165d49d6003aa4c17f76b171b0282c",
}

GOLDEN: dict[tuple[str, str], dict[str, str]] = {
    ("fixed", "area"): {
        "results.csv": "bd52cab582a18798943971e76536eab122322b08fc6fef3ca714ed25fc60f15c",
        "summary.csv": "dc24b1265cc1dbb8fa9541469f7496024fb6e401cbbf39229f9af25df6cc09f6",
        "trace_fixed-homogeneous-area_week1.csv": "81419208901c01f8d75234822249dc2bf8c7ef32de96c18e2d34e810cbc72c06",
        "trace_fixed-homogeneous-area_week2.csv": "f9a8f83f35b9f01390eb849feb1476a78ab29ebc9d6430221c324e37733e015a",
    },
    ("fixed", "zoning"): {
        "results.csv": "b9a305a358291870ccb403958106c1265218889317726505945c4abc153e12b5",
        "summary.csv": "bc2cc8d731e9ce361cf420bfef6da7e3044db64519d86a605397ffa3083df342",
        "trace_fixed-homogeneous-zoning_week1.csv": "690a9198ea4681b8a1a97bc0926caf568aca52966b75b967aab669691b5b1a32",
        "trace_fixed-homogeneous-zoning_week2.csv": "8924642900139703f1346ccdb9467ad0d852c09b19fc959cde845d768d2158cc",
    },
    ("random", "area"): {
        "results.csv": "57365a30df451c09be62fde192024dd345a68b39073fa977753833de98ab75f1",
        "summary.csv": "294046c3ab97cdeffb4653a0f7bc3088d97e4248ec98453ac8c6e08146fadf2f",
        "trace_random-homogeneous-area_week1.csv": "9c96c5f147abeb03597deb2a7addf78023fbede55bf855eb75748e53d70e9a18",
        "trace_random-homogeneous-area_week2.csv": "73a716d0b1f58ea797ada635d4bb40be8524c9fce7bfec57309f26407211f201",
    },
    ("random", "zoning"): {
        "results.csv": "901fdce42a9b45891dd66124cd028c678c59299a63eb5a00a0faff24f128ec31",
        "summary.csv": "930d040b58ae9bfc2c46d78a4b5115d79b59590b330809a226d7ad8091d6e1a2",
        "trace_random-homogeneous-zoning_week1.csv": "672fe1983c49bccd7fc169fc649e0c8228c07a8435d0f38ea1c45e0b2ecae65a",
        "trace_random-homogeneous-zoning_week2.csv": "39d154d80ecd812d4feb5863963b5aa57dcc3232e51b8b207f4038f6d52ef1d9",
    },
    ("fixed-zone", "area"): {
        "results.csv": "3adec279ab104b1c662597b424e7b2f74a8d51004590689fb1e842f47611406a",
        "summary.csv": "780978739fbe334201414283cd74fd99581b931f826e0766a86daaf8f28c7b30",
        "trace_fixed-zone-homogeneous-area_week1.csv": "a43487f6e1e185e006efca9757dbc2c0d6a090bf404b8ee36878df259d7de59d",
        "trace_fixed-zone-homogeneous-area_week2.csv": "348028b5684f2fd21f982051067bc374807c7b7141feec4b76ff5ea6a49d764e",
    },
    ("fixed-zone", "zoning"): {
        "results.csv": "ed372d7f466fad775163f8ddc66abac333b92cf8fd56b00d4b813be2c434d34f",
        "summary.csv": "c02212779b7c4233b43c94f27e03c90e28a6cd07167f235857a671ea16be9a2e",
        "trace_fixed-zone-homogeneous-zoning_week1.csv": "c78682ec73368d789af0c033152d4bf3bfb33338e548d53a192e76deed9fd38f",
        "trace_fixed-zone-homogeneous-zoning_week2.csv": "588e34a00084a8b4730af61f0e8216190011798680e7829759817e3f32521e42",
    },
}

# The same six runs under sampled replenishment, in the spelling of
# earlier versions (``DISTANCE_CONFIG`` names distance walking, what every
# run does, and ``replenish.mode`` sampled): the visit intervals are drawn,
# so this table pins the sampler, which ``GOLDEN`` does not reach.
DISTANCE_CONFIG = {"walking": {"mode": "distance"}, "replenish": {"mode": "sampled"}}

GOLDEN_DISTANCE: dict[tuple[str, str], dict[str, str]] = {
    ("fixed", "area"): {
        "results.csv": "5a45807f4f7d43e8b373524b8e26f266b628f0454c39f1d1a0cee87c225e3083",
        "summary.csv": "219b3d324c53be0e679de4d0ba4c4f6cb2e4ce4cb9cc5bfc05f0844be8a72e8b",
        "trace_fixed-homogeneous-area_week1.csv": "b7b99af660dfd56558e734a5d59ddf839727b952366d5327fa75446c8257d25d",
        "trace_fixed-homogeneous-area_week2.csv": "003f6b02fc09647b1b481c6723e1f98b2e86cb91dd9e8c6993bea79045c87d95",
    },
    ("fixed", "zoning"): {
        "results.csv": "aa2a81bef21a71ce2d7b287812fcc77adc83df3d97217cfe7a7fccec293c007a",
        "summary.csv": "e49364a69d12f5a0c1a8165ae8bba413dece627a96a8688df26d2e3c17e07f20",
        "trace_fixed-homogeneous-zoning_week1.csv": "b87b2efcec728fa05f5d20f27ae31e9d8169968c154e55b5d205a24a98d60d9d",
        "trace_fixed-homogeneous-zoning_week2.csv": "a2c1add58e7d1ede86061e3ebb61d79c5a8b7949594a5e91ac686fdbd84003d6",
    },
    ("random", "area"): {
        "results.csv": "95109efd2ddc785a321fa5ea4b31a8f1bfd83a2dde58a88ddc97f24bdffe3966",
        "summary.csv": "0cd0060bc6baf99c738507aa09a5d24d6b75a114e1aa187fc6e4b1603a25b41b",
        "trace_random-homogeneous-area_week1.csv": "a1ee3c20d170b528d21b86969a5401dd389becce70994f4de87bf5301fcab4a4",
        "trace_random-homogeneous-area_week2.csv": "a8d143ccb949ce0caa41beac198825a64e2e63c8facf0f698257f22b3138dd5d",
    },
    ("random", "zoning"): {
        "results.csv": "1ae618fd79525d64d5a2531adf0fb59622d0fbe4d0dc9f395604b26c1f47aee8",
        "summary.csv": "d3581f22e61b535f2bf4f86c8dea54a5840a7295cab80ddcfbbdea0255123668",
        "trace_random-homogeneous-zoning_week1.csv": "ca03387ca18b39a757d6bb853ae5fb38aa749e419fe31d132375514a3cd7e37a",
        "trace_random-homogeneous-zoning_week2.csv": "c53155ea34a52f858bb92fbe7b214b45c17ea3e4dbcda6a8a825818946fa8e12",
    },
    ("fixed-zone", "area"): {
        "results.csv": "424db78905230221ea6d8f3c97637b9b4421b84ac0cf71096f5184e9ab246aa5",
        "summary.csv": "383f9e54dea6cd5a7a755ebfcebd3b53d679152e79ba164439f90075a8cb4c5f",
        "trace_fixed-zone-homogeneous-area_week1.csv": "100d967e7360e021d96502a70b05fb789f6c820e2ed56d4021ae2688534a30c3",
        "trace_fixed-zone-homogeneous-area_week2.csv": "05ec8e06a1e288eda40170bb35abf55e68cb6265d0a9beece5cea8c65aa07379",
    },
    ("fixed-zone", "zoning"): {
        "results.csv": "4f3c61ea92ffeb1827b919e1dc4772e1f18b2f1412c7a679f741eba9563ee23e",
        "summary.csv": "f7972c898cadfa4e4de0d4d429973021ccc540210a8e658337caf35443405622",
        "trace_fixed-zone-homogeneous-zoning_week1.csv": "6bb5f117b483c7c69bd5a9d65338c631d4b490c7ab0808861c502a1be6ade795",
        "trace_fixed-zone-homogeneous-zoning_week2.csv": "9984f207fb4e091ea5ecd1d88000435fe0fa6644ae3da8426994339b8ab37ca8",
    },
}

# SHA-256 of the ``scenario,week,metric`` columns of each ``results.csv``
# (header included, one ``\n``-terminated line per row).  First recorded
# before the cost breakdown columns were reworked, and re-recorded with
# ``GOLDEN`` when distance walking became the only model.  The weekly
# metric is pinned by the oracle, so this table never changes with the
# breakdown.
METRIC_COLUMNS: dict[tuple[str, str], str] = {
    ("fixed", "area"): "9f699d49fd7b8d66e94f5e2937ca4edfe909b077f4d28d6159bdbcc892585c55",
    ("fixed", "zoning"): "81b782b8dca4fc2ee25dfc610e6dff9b7bc2aa61c2429d896ad00d26d726581c",
    ("random", "area"): "c7687799a09b528fd42194f44a9ce086f005c4b67ea4dac3de64d7b948d4d611",
    ("random", "zoning"): "4dbfc46cbf42a7375e30640515e186a4199f721ea01df850c393f1372a25b8a0",
    ("fixed-zone", "area"): "feeed76019c2a60eabbd2ee09111a16383fc893d4273e6c603597fa29ae0a5f8",
    ("fixed-zone", "zoning"): "5ff52ae0a7af1e38b5f807b778631fa53b03eecc878a968b88228910f6cedbc1",
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_dataset_is_golden(golden_dataset, capsys):
    capsys.readouterr()
    assert {name: _sha(golden_dataset / name) for name in DATASET} == DATASET


def _traced_run_hashes(dataset, tmp_path, capsys, policy, picking, extra=()):
    """SHA-256 of every file a two-week ``simulate --trace`` run writes."""
    out = tmp_path / "run"
    rc = main(["simulate", "--data", str(dataset), "--policy", policy,
               "--picking", picking, "--weeks", "2", "--seed", "7",
               "--out", str(out), "--trace", *extra])
    capsys.readouterr()
    assert rc == 0
    return {f.name: _sha(f) for f in sorted(out.iterdir())}


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_simulation_outputs_are_golden(golden_dataset, tmp_path, capsys, policy, picking):
    assert _traced_run_hashes(golden_dataset, tmp_path, capsys, policy, picking) == \
        GOLDEN[(policy, picking)]


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_distance_walking_outputs_are_golden(golden_dataset, tmp_path, capsys, policy,
                                             picking):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(DISTANCE_CONFIG), encoding="utf-8")
    assert _traced_run_hashes(golden_dataset, tmp_path, capsys, policy, picking,
                              ["--config", str(config)]) == GOLDEN_DISTANCE[(policy, picking)]


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_weekly_metrics_are_golden(golden_dataset, tmp_path, capsys, policy, picking):
    out = tmp_path / "run"
    rc = main(["simulate", "--data", str(golden_dataset), "--policy", policy,
               "--picking", picking, "--weeks", "2", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        columns = "".join(",".join(row[:3]) + "\n" for row in csv.reader(fh))
    assert hashlib.sha256(columns.encode()).hexdigest() == METRIC_COLUMNS[(policy, picking)]


@pytest.mark.parametrize("policy", ["fixed", "random", "fixed-zone"])
@pytest.mark.parametrize("picking", ["area", "zoning"])
def test_picker_time_adds_up_to_the_last_completion(golden_dataset, policy, picking):
    spec = ScenarioSpec(name="identity", policy=PolicyKind(policy),
                        allocation=AllocationRule.HOMOGENEOUS,
                        picking=PickingMode(picking), weeks=2, seed=7,
                        config=SimConfig(),
                        data=DataPaths.from_dir(str(golden_dataset)))
    for week in run_scenario(spec).weeks:
        t = week.totals
        assert t.walk_s > 0 and t.handle_s > 0
        assert math.isclose(week.metric / spec.config.metric_factor(),
                            t.walk_s + t.handle_s + t.wait_s,
                            rel_tol=1e-12), f"week {week.week}"


def test_the_storage_policy_moves_the_walking_of_a_week(golden_dataset):
    """Every leg is priced from where its pallet stands, so fixed and random
    storage of the same orders walk different totals.  A walking model that
    charged one constant per route segment walked the same under both."""
    walked = []
    for policy in ("fixed", "random"):
        spec = ScenarioSpec(name="walk", policy=PolicyKind(policy),
                            allocation=AllocationRule.HOMOGENEOUS,
                            picking=PickingMode.AREA, weeks=1, seed=7, config=SimConfig(),
                            data=DataPaths.from_dir(str(golden_dataset)))
        [week] = run_scenario(spec).weeks
        walked.append(week.totals.walk_s)
    assert walked[0] != walked[1]
