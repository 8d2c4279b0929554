"""Simulation configuration: one JSON document, one dataclass.

Field names follow the operating-parameter shorthand used by warehouse
practitioners for this model family (equipment speeds, per sub-process
base and unit times).  Every field has a documented default, so ``{}``
is a valid config.  Meanings:

=====================  ==================================================
``sph``                handlift travel speed, cm/s
``sps``                stacker travel speed, cm/s
``Lsps``               stacker lift speed, cm/s
``tth``                handlift turn time, s per aisle change
``tts``                stacker turn time, s per aisle change
``BTpu``               base time charged once per picking visit, s
``BTpa``               base time charged once per put-away, s
``PMpu``               handling time per master carton picked, s
``PPpu``               handling time per pallet touched while picking, s
``PPpa``               handling time per pallet placed at put-away, s
``pieces_per_master``  pieces per master carton
``metric_unit``        unit of the weekly metric: seconds, minutes, hours
``horizon_s``          simulated-time ceiling of one weekly run, s
=====================  ==================================================

``walking`` selects how per-order travel is charged: ``constant`` mode
charges ``constant_s`` once per route segment, ``distance`` mode walks
the route with the selected equipment.  ``replenish`` controls the
interval between restocking visits: ``constant`` mode uses ``mu_s``
exactly, ``sampled`` draws Normal(mu_s, sigma_s) clamped to at least
``t_min_s``.

Files written for earlier versions may still name equipment counts,
capability flags, plan durations and other fields no simulation reads
(``LEGACY_KEYS``); they load, and the keys are dropped with a warning.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, fields
from typing import Any

from .errors import ParseError, ValidationError
from .warehouse import Equipment, HANDLIFT, STACKER

log = logging.getLogger("picksim.config")

WALK_CONSTANT = "constant"
WALK_DISTANCE = "distance"
REPLENISH_CONSTANT = "constant"
REPLENISH_SAMPLED = "sampled"
METRIC_UNITS = {"seconds": 1.0, "minutes": 1.0 / 60.0, "hours": 1.0 / 3600.0}

# Documented top-level keys of earlier versions that no simulation reads:
# equipment counts and operators (h s oh os), capability flags (puh pus
# pah pas tfh tfs), sorting times (BTs PMs PPs), plan durations (PDpu PDpa
# PDs), EAT, pallet limits (MPW MPV), WI, OIFW and the break allowance LR.
LEGACY_KEYS = frozenset({
    "h", "s", "oh", "os", "puh", "pus", "pah", "pas", "tfh", "tfs",
    "BTs", "PMs", "PPs", "PDpu", "PDpa", "PDs", "EAT", "MPW", "MPV", "WI", "OIFW", "LR",
})


@dataclass
class WalkSettings:
    mode: str = WALK_CONSTANT
    constant_s: float = 120.0
    equipment: str = STACKER


@dataclass
class ReplenishSettings:
    mode: str = REPLENISH_CONSTANT
    mu_s: float = 600.0
    sigma_s: float = 60.0
    t_min_s: float | None = None
    seed: int = 12345

    def __post_init__(self) -> None:
        # with a bad mu_s or sigma_s the floor stays unset; validate() names the field
        if self.t_min_s is None and _is_num(self.mu_s) and _is_num(self.sigma_s):
            self.t_min_s = max(1.0, self.mu_s - 3.0 * self.sigma_s)


@dataclass
class SimConfig:
    sph: float = 100.0
    sps: float = 90.0
    Lsps: float = 30.0
    tth: float = 2.0
    tts: float = 3.0
    BTpu: float = 10.0
    BTpa: float = 10.0
    PMpu: float = 2.0
    PPpu: float = 15.0
    PPpa: float = 15.0
    pieces_per_master: int = 10
    metric_unit: str = "minutes"
    horizon_s: float = 2_592_000.0
    walking: WalkSettings = field(default_factory=WalkSettings)
    replenish: ReplenishSettings = field(default_factory=ReplenishSettings)

    # -- equipment builders ------------------------------------------------

    def handlift(self) -> Equipment:
        return Equipment(HANDLIFT, self.sph, 0.0, self.tth)

    def stacker(self) -> Equipment:
        return Equipment(STACKER, self.sps, self.Lsps, self.tts)

    def walking_equipment(self) -> Equipment:
        return self.handlift() if self.walking.equipment == HANDLIFT else self.stacker()

    def metric_factor(self) -> float:
        return METRIC_UNITS[self.metric_unit]

    def validate(self) -> list[str]:
        """Collect every constraint violation; empty list means valid."""
        errors: list[str] = []

        def check(cond: bool, message: str) -> None:
            if not cond:
                errors.append(message)

        for name in ("sph", "sps", "Lsps"):
            check(_is_pos(getattr(self, name)), f"{name} must be a positive number")
        for name in ("tth", "tts", "BTpu", "BTpa", "PMpu", "PPpu", "PPpa"):
            check(_is_nonneg(getattr(self, name)), f"{name} must be a non-negative number")
        check(isinstance(self.pieces_per_master, int) and self.pieces_per_master >= 1,
              "pieces_per_master must be an integer >= 1")
        check(isinstance(self.metric_unit, str) and self.metric_unit in METRIC_UNITS,
              f"metric_unit must be one of {sorted(METRIC_UNITS)}")
        check(_is_pos(self.horizon_s), "horizon_s must be a positive number")
        check(self.walking.mode in (WALK_CONSTANT, WALK_DISTANCE),
              "walking.mode must be 'constant' or 'distance'")
        check(_is_nonneg(self.walking.constant_s), "walking.constant_s must be non-negative")
        check(self.walking.equipment in (HANDLIFT, STACKER),
              "walking.equipment must be 'handlift' or 'stacker'")
        check(self.replenish.mode in (REPLENISH_CONSTANT, REPLENISH_SAMPLED),
              "replenish.mode must be 'constant' or 'sampled'")
        check(_is_pos(self.replenish.mu_s), "replenish.mu_s must be a positive number")
        check(_is_nonneg(self.replenish.sigma_s), "replenish.sigma_s must be non-negative")
        check(self.replenish.t_min_s is None or _is_pos(self.replenish.t_min_s),
              "replenish.t_min_s must be a positive number")
        check(isinstance(self.replenish.seed, int), "replenish.seed must be an integer")
        return errors


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_pos(v: Any) -> bool:
    return _is_num(v) and v > 0


def _is_nonneg(v: Any) -> bool:
    return _is_num(v) and v >= 0


_NESTED = {"walking": WalkSettings, "replenish": ReplenishSettings}
_TOP_LEVEL = {f.name for f in fields(SimConfig)} - set(_NESTED)


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    """Build a config from a JSON-shaped dict, applying defaults and
    validating; raises ValidationError listing every problem found.
    Keys in ``LEGACY_KEYS`` are dropped with one warning."""
    errors: list[str] = []
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key in _NESTED:
            if not isinstance(value, dict):
                errors.append(f"{key} must be an object")
                continue
            known = {f.name for f in fields(_NESTED[key])}
            errors.extend(f"unknown config field {key}.{k}" for k in sorted(set(value) - known))
            kwargs[key] = _NESTED[key](**{k: v for k, v in value.items() if k in known})
        elif key in _TOP_LEVEL:
            kwargs[key] = value
        elif key not in LEGACY_KEYS:
            errors.append(f"unknown config field {key}")
    if errors:
        raise ValidationError(errors)
    cfg = SimConfig(**kwargs)
    problems = cfg.validate()
    if problems:
        raise ValidationError(problems)
    dropped = sorted(LEGACY_KEYS.intersection(data))
    if dropped:
        log.warning("config fields %s are no longer used and were ignored", ", ".join(dropped))
    return cfg


def _read_json_object(path: str) -> dict[str, Any]:
    """The decoded JSON object of a config file; ParseError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also a number too long, nesting too deep
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config {path} must hold a JSON object")
    return data


def load_config(path: str) -> SimConfig:
    return config_from_dict(_read_json_object(path))
