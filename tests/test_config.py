"""Configuration: defaults, validation, reading JSON files."""

from __future__ import annotations

import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from picksim import (
    Equipment,
    ReplenishmentSampler,
    ReplenishSettings,
    SimConfig,
    ValidationError,
    config_from_dict,
    load_config,
)
from conftest import OLD_MODES, RETIRED_KEYS, child_env
from test_golden import DISTANCE_CONFIG

ROOT = Path(__file__).resolve().parents[1]


def test_empty_dict_gives_full_defaults():
    cfg = config_from_dict({})
    assert cfg == SimConfig()
    assert cfg.sps == 90.0 and cfg.Lsps == 30.0 and cfg.tts == 3.0
    assert cfg.BTpu == 10.0 and cfg.PPpu == 15.0 and cfg.PMpu == 2.0
    assert cfg.pieces_per_master == 10
    assert cfg.metric_unit == "minutes"
    assert cfg.replenish.mu_s == 600.0 and cfg.replenish.sigma_s == 0.0
    assert ReplenishmentSampler.from_config(cfg, 0).t_min_s == 600.0
    assert cfg.validate() == []


def test_configs_are_immutable_and_hashable():
    cfg = config_from_dict({})
    assert cfg == SimConfig() and hash(cfg) == hash(SimConfig())
    assert len({cfg, SimConfig(), config_from_dict({"sps": 80.0})}) == 2
    for record, name in ((cfg, "sps"), (cfg.replenish, "mu_s")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_null_floor_loads_as_unset():
    cfg = config_from_dict({"replenish": {"t_min_s": None, "sigma_s": 60.0}})
    assert cfg == SimConfig(replenish=ReplenishSettings(sigma_s=60.0))
    assert ReplenishmentSampler.from_config(cfg, 0).t_min_s == 600.0 - 3 * 60.0


def test_the_readme_table_has_one_row_per_field_in_record_order():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [row.split("|")[1].strip() for row in section.splitlines() if row.startswith("| `")]
    fields = [*SimConfig._fields[:-1], *(f"replenish.{f}" for f in ReplenishSettings._fields)]
    assert SimConfig._fields[-1] == "replenish" and len(fields) == 13
    assert rows == [f"`{field}`" for field in fields]


def test_interval_floor_never_below_one_second():
    cfg = config_from_dict({"replenish": {"mu_s": 50.0, "sigma_s": 60.0}})
    assert ReplenishmentSampler.from_config(cfg, 0).t_min_s == 1.0


@pytest.mark.parametrize("old, new", OLD_MODES.values(), ids=OLD_MODES)
def test_replenish_mode_of_earlier_versions_loads_as_its_intervals(old, new, caplog):
    """``constant`` drew ``mu_s`` whatever ``sigma_s`` and ``t_min_s`` said;
    ``sampled`` drew with ``sigma_s``, 60 when unset.  No warning is logged."""
    assert config_from_dict({"replenish": old}) == config_from_dict({"replenish": new})
    assert caplog.records == []


@pytest.mark.parametrize("mode", ["", "Sampled", None, 1, ["constant"]])
def test_any_other_replenish_mode_is_refused(mode):
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"replenish": {"mode": mode, "mu_s": 300}})
    assert exc.value.messages == ["replenish.mode must be 'constant' or 'sampled'"]


@pytest.mark.parametrize("mode", ["constant", "sampled"])
def test_replenish_mode_keeps_the_refusal_of_a_bad_sigma_or_floor(mode):
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"replenish": {"mode": mode, "sigma_s": -1, "t_min_s": 0}})
    assert exc.value.messages == ["replenish.sigma_s must be non-negative",
                                  "replenish.t_min_s must be a positive number"]


def test_unknown_keys_are_all_reported():
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"sphh": 1, "nope": 2, "walking": {"pace": 3}})
    messages = exc.value.messages
    assert any("sphh" in m for m in messages)
    assert any("nope" in m for m in messages)
    assert any("walking.pace" in m for m in messages)
    assert len(messages) == 3


def test_validation_collects_every_violation():
    with pytest.raises(ValidationError) as exc:
        config_from_dict({
            "sps": -5,
            "Lsps": 0,
            "BTpu": -1,
            "metric_unit": "days",
            "replenish": {"mu_s": 0},
        })
    assert exc.value.messages == [
        "sps must be a positive number",
        "Lsps must be a positive number",
        "BTpu must be a non-negative number",
        "metric_unit must be one of ['hours', 'minutes', 'seconds']",
        "replenish.mu_s must be a positive number",
    ]


def test_booleans_are_not_numbers():
    with pytest.raises(ValidationError, match="sps"):
        config_from_dict({"sps": True})


@pytest.mark.parametrize("data, message", [
    ({"pieces_per_master": True}, "pieces_per_master must be an integer >= 1"),
], ids=["pieces_per_master-true"])
def test_booleans_are_not_integers(data, message):
    with pytest.raises(ValidationError) as exc:
        config_from_dict(data)
    assert exc.value.messages == [message]


def test_equipment_builders_read_speed_lift_and_turn():
    cfg = config_from_dict({"sps": 80.0, "tts": 4.0})
    assert cfg.stacker() == Equipment(80.0, 30.0, 4.0)


def test_the_keys_of_earlier_versions_are_unknown_fields():
    """No run reads them, so each is refused as any unknown key is, in file
    order, beside the problems of the fields a run reads."""
    top = [key for key in RETIRED_KEYS if "." not in key]
    assert len(top) == 25 and not set(top) & set(SimConfig._fields)
    with pytest.raises(ValidationError) as exc:
        config_from_dict({**dict.fromkeys(top, 1), "sps": 80.0,
                          "walking": {"mode": "distance", "constant_s": 1}})
    assert exc.value.messages == [f"unknown config field {key}" for key in RETIRED_KEYS]


@pytest.mark.parametrize("walking", [{}, {"mode": "distance"}, {"equipment": "stacker"},
                                     {"mode": "distance", "equipment": "stacker"}])
def test_the_walking_of_earlier_versions_loads_without_a_warning(caplog, walking):
    """Distance walking on the stacker is what every run does, so a
    ``walking`` object that names it is the default config."""
    with caplog.at_level(logging.WARNING):
        cfg = config_from_dict({"walking": walking})
    assert cfg == SimConfig()
    assert caplog.records == []


@pytest.mark.parametrize("constant_s", [30.0, -1, "x", None])
def test_a_walking_constant_is_an_unknown_field(constant_s):
    """No run reads ``walking.constant_s``: whatever its value, it is
    refused as any unknown key of ``walking`` is."""
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"sps": 60.0, "walking": {"mode": "distance", "constant_s": constant_s}})
    assert exc.value.messages == ["unknown config field walking.constant_s"]


@pytest.mark.parametrize("mode", ["constant", "Distance", "", None, 1, ["distance"], "x" * 5000])
def test_any_walking_mode_but_distance_is_refused(mode):
    """Constant walking is gone; running such a config at distance would
    change its results without saying so."""
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"walking": {"mode": mode}})
    assert exc.value.messages == ["walking.mode must be 'distance'"]


@pytest.mark.parametrize("walking, message", [
    ({"x": 1}, "unknown config field walking.x"),
    ("distance", "walking must be an object"),
    (None, "walking must be an object"),
], ids=["unknown-key", "string", "null"])
def test_any_other_walking_is_refused(walking, message):
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"walking": walking})
    assert exc.value.messages == [message]


def test_the_config_of_earlier_spellings_loads_without_logging(tmp_path):
    """``DISTANCE_CONFIG``, which is also the config of the benchmark's
    ``fixed-zoning-dist-full``, names ``walking.mode`` distance and
    ``replenish.mode`` sampled.  Neither warns, so loading it in a fresh
    interpreter logs nothing and leaves ``logging`` unimported."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DISTANCE_CONFIG))
    code = ("import sys; from picksim.config import load_config; "
            "print(load_config(sys.argv[1]).replenish.sigma_s, 'logging' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, env=child_env())
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "60.0 False\n")


@pytest.mark.parametrize("equipment", ["handlift", "Stacker", "", None, 1, ["stacker"],
                                       "x" * 5000])
def test_any_other_walking_equipment_is_refused(equipment):
    with pytest.raises(ValidationError) as exc:
        config_from_dict({"walking": {"mode": "distance", "equipment": equipment}})
    assert exc.value.messages == ["walking.equipment must be 'stacker'"]


def test_a_key_of_earlier_versions_is_refused_as_its_misspelling_is(caplog):
    with caplog.at_level(logging.WARNING):
        with pytest.raises(ValidationError) as exc:
            config_from_dict({"MPV": 100, "MPX": 1})
    assert exc.value.messages == ["unknown config field MPV", "unknown config field MPX"]
    assert not caplog.records


def test_an_unknown_key_is_quoted_by_its_first_200_characters():
    long_key = "k" * 5000
    with pytest.raises(ValidationError) as exc:
        config_from_dict({long_key: 1, "replenish": {long_key: 1}, "walking": {long_key: 1}})
    assert exc.value.messages == [f"unknown config field {'k' * 200}",
                                  f"unknown config field replenish.{'k' * 200}",
                                  f"unknown config field walking.{'k' * 200}"]


def test_metric_factor():
    assert SimConfig().metric_factor() == 1.0 / 60.0
    assert config_from_dict({"metric_unit": "seconds"}).metric_factor() == 1.0
    assert config_from_dict({"metric_unit": "hours"}).metric_factor() == 1.0 / 3600.0


def test_bad_json_is_a_parse_error(tmp_path):
    from picksim import ParseError
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError, match="JSON"):
        load_config(str(path))
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2]")
    with pytest.raises(ParseError, match="object"):
        load_config(str(path2))
    path3 = tmp_path / "latin1.json"
    path3.write_bytes(b'{"sph": 1\xff00}')
    with pytest.raises(ParseError, match="not UTF-8"):
        load_config(str(path3))
    # valid JSON, but more digits than Python converts: named as such
    path.write_text('{"sph": ' + "1" * 5000 + "}")
    with pytest.raises(ParseError, match=r"^config .*: a number has more than 4,300 digits$"):
        load_config(str(path))
    path.write_text('{"sph": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ParseError, match="JSON"):
        load_config(str(path))
