"""Configuration: defaults, validation, reading JSON files."""

from __future__ import annotations

import logging
from dataclasses import fields

import pytest

from picksim import (
    Equipment,
    SimConfig,
    ValidationError,
    config_from_dict,
    load_config,
)
from picksim.config import LEGACY_KEYS


def test_empty_dict_gives_full_defaults():
    cfg = config_from_dict({})
    assert cfg == SimConfig()
    assert cfg.sph == 100.0 and cfg.sps == 90.0 and cfg.Lsps == 30.0
    assert cfg.BTpu == 10.0 and cfg.PPpu == 15.0 and cfg.PMpu == 2.0
    assert cfg.pieces_per_master == 10
    assert cfg.metric_unit == "minutes"
    assert cfg.horizon_s == 2_592_000.0
    assert cfg.walking.mode == "constant" and cfg.walking.constant_s == 120.0
    assert cfg.replenish.mode == "constant" and cfg.replenish.mu_s == 600.0
    assert cfg.replenish.t_min_s == 600.0 - 3 * 60.0
    assert cfg.validate() == []


def test_interval_floor_never_below_one_second():
    cfg = config_from_dict({"replenish": {"mu_s": 50.0, "sigma_s": 60.0}})
    assert cfg.replenish.t_min_s == 1.0


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
            "sph": -5,
            "BTpu": -1,
            "horizon_s": -1,
            "metric_unit": "days",
            "replenish": {"mu_s": 0},
        })
    messages = exc.value.messages
    for needle in ("sph", "BTpu", "horizon_s", "metric_unit", "replenish.mu_s"):
        assert any(needle in m for m in messages), f"no message about {needle}"
    assert len(messages) >= 5


def test_booleans_are_not_numbers():
    with pytest.raises(ValidationError, match="sph"):
        config_from_dict({"sph": True})


def test_equipment_builders_read_speed_lift_and_turn():
    cfg = config_from_dict({"sph": 80.0, "tts": 4.0})
    assert cfg.handlift() == Equipment("handlift", 80.0, 0.0, 2.0)
    assert cfg.stacker() == Equipment("stacker", 90.0, 30.0, 4.0)


def test_legacy_keys_load_with_one_warning(caplog):
    assert len(LEGACY_KEYS) == 22 and not LEGACY_KEYS & {f.name for f in fields(SimConfig)}
    with caplog.at_level(logging.WARNING, logger="picksim.config"):
        cfg = config_from_dict({**dict.fromkeys(LEGACY_KEYS, 1), "sph": 80.0})
    assert cfg == config_from_dict({"sph": 80.0})
    assert [r.getMessage() for r in caplog.records] == [
        f"config fields {', '.join(sorted(LEGACY_KEYS))} are no longer used and were ignored"]


def test_legacy_keys_do_not_hide_unknown_ones(caplog):
    with caplog.at_level(logging.WARNING, logger="picksim.config"):
        with pytest.raises(ValidationError) as exc:
            config_from_dict({"MPV": 100, "MPX": 1})
    assert exc.value.messages == ["unknown config field MPX"]
    assert not caplog.records, "a rejected config logs no legacy warning"


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
    for text in ['{"sph": ' + "1" * 5000 + "}", '{"sph": ' + "[" * 100_000 + "]" * 100_000 + "}"]:
        path.write_text(text)
        with pytest.raises(ParseError, match="JSON"):
            load_config(str(path))
