"""Simulation configuration: one JSON document, one ``SimConfig`` record.

Field names follow the operating-parameter shorthand used by warehouse
practitioners for this model family (equipment speeds, per sub-process
base and unit times).  Every field has a documented default, so ``{}``
is a valid config.  Meanings:

=====================  ==================================================
``sps``                stacker travel speed, cm/s
``Lsps``               stacker lift speed, cm/s
``tts``                stacker turn time, s per aisle change
``BTpu``               base time charged once per picking visit, s
``BTpa``               base time charged once per put-away, s
``PMpu``               handling time per master carton picked, s
``PPpu``               handling time per pallet touched while picking, s
``PPpa``               handling time per pallet placed at put-away, s
``pieces_per_master``  pieces per master carton
``metric_unit``        unit of the weekly metric: seconds, minutes, hours
=====================  ==================================================

Every leg of a route is walked on the stacker, the one equipment, which
put-away rides too, and priced from the slot coordinates by
``warehouse.travel_time``.  ``replenish`` sets the interval between
restocking visits: a draw of Normal(mu_s, sigma_s), at least
``t_min_s`` and at least 1 s; ``sigma_s`` is 0 by default, so every
interval is ``mu_s``, and an unset ``t_min_s`` is derived when a week's
sampler is built (see ``replenishment.py``).  The config holds no seed:
the master seed is the scenario's (``ScenarioSpec.seed``, the CLI's
``--seed``).

``SimConfig`` and ``ReplenishSettings`` are immutable ``NamedTuple``s,
so a config is hashable and compares field by field; a changed copy
comes from ``_replace`` or ``config_from_dict``.

A week has no time ceiling: it ends when its last order completes.
Any key not named here is refused as an unknown field, and so are the
fields of earlier versions that no simulation reads: equipment counts,
capability flags, plan durations, the simulated-time ceiling
``horizon_s``, the handlift's ``sph`` and ``tth``, ``walking.constant_s``
and the rest.  Two spellings of earlier versions still load, each as the
run it always was: ``replenish.mode``, ``constant`` as ``sigma_s`` 0
with ``t_min_s`` unset and ``sampled`` as ``sigma_s`` 60 unless the file
sets it; and a ``walking`` object naming ``mode`` ``distance`` and
``equipment`` ``stacker``, what every run does, while any other value or
key of it is refused.  ``json`` is imported only when a config file is
read.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .errors import ParseError, ValidationError, _cut
from .warehouse import Equipment, _TooManyDigits, _int

METRIC_UNITS = {"seconds": 1.0, "minutes": 1.0 / 60.0, "hours": 1.0 / 3600.0}

# What the ``walking`` object of earlier versions may name: the values every
# run now has.
OLD_WALKING = {"mode": "distance", "equipment": "stacker"}


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_pos(v: Any) -> bool:
    return _is_num(v) and v > 0


def _is_nonneg(v: Any) -> bool:
    return _is_num(v) and v >= 0


class ReplenishSettings(NamedTuple):
    mu_s: float = 600.0
    sigma_s: float = 0.0
    t_min_s: float | None = None


class SimConfig(NamedTuple):
    sps: float = 90.0
    Lsps: float = 30.0
    tts: float = 3.0
    BTpu: float = 10.0
    BTpa: float = 10.0
    PMpu: float = 2.0
    PPpu: float = 15.0
    PPpa: float = 15.0
    pieces_per_master: int = 10
    metric_unit: str = "minutes"
    replenish: ReplenishSettings = ReplenishSettings()

    # -- equipment builders ------------------------------------------------

    def stacker(self) -> Equipment:
        return Equipment(self.sps, self.Lsps, self.tts)

    def metric_factor(self) -> float:
        return METRIC_UNITS[self.metric_unit]

    def validate(self) -> list[str]:
        """Collect every constraint violation; empty list means valid."""
        errors: list[str] = []

        def check(cond: bool, message: str) -> None:
            if not cond:
                errors.append(message)

        for name in ("sps", "Lsps"):
            check(_is_pos(getattr(self, name)), f"{name} must be a positive number")
        for name in ("tts", "BTpu", "BTpa", "PMpu", "PPpu", "PPpa"):
            check(_is_nonneg(getattr(self, name)), f"{name} must be a non-negative number")
        check(type(self.pieces_per_master) is int and self.pieces_per_master >= 1,
              "pieces_per_master must be an integer >= 1")
        check(isinstance(self.metric_unit, str) and self.metric_unit in METRIC_UNITS,
              f"metric_unit must be one of {sorted(METRIC_UNITS)}")
        check(_is_pos(self.replenish.mu_s), "replenish.mu_s must be a positive number")
        check(_is_nonneg(self.replenish.sigma_s), "replenish.sigma_s must be non-negative")
        check(self.replenish.t_min_s is None or _is_pos(self.replenish.t_min_s),
              "replenish.t_min_s must be a positive number")
        return errors


_TOP_LEVEL = set(SimConfig._fields) - {"replenish"}


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    """Build a config from a JSON-shaped dict, applying defaults and
    validating; raises ValidationError listing every problem found.
    ``replenish.mode`` is translated, and a ``walking`` object that names
    ``OLD_WALKING`` dropped; an unknown key is quoted by ``_cut``."""
    errors: list[str] = []
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key in ("walking", "replenish") and not isinstance(value, dict):
            errors.append(f"{key} must be an object")
        elif key == "walking":  # of earlier versions
            for k in sorted(value):
                if k not in OLD_WALKING:
                    errors.append(f"unknown config field walking.{_cut(k)}")
                elif value[k] != OLD_WALKING[k]:
                    errors.append(f"walking.{k} must be {OLD_WALKING[k]!r}")
        elif key == "replenish":
            if "mode" in value:  # of earlier versions
                value = {"sigma_s": 60.0, **value}
                if value.pop("mode") not in ("constant", "sampled"):
                    errors.append("replenish.mode must be 'constant' or 'sampled'")
            known = set(ReplenishSettings._fields)
            errors.extend(f"unknown config field {key}.{_cut(k)}"
                          for k in sorted(set(value) - known))
            kwargs[key] = ReplenishSettings(**{k: v for k, v in value.items() if k in known})
        elif key in _TOP_LEVEL:
            kwargs[key] = value
        else:
            errors.append(f"unknown config field {_cut(key)}")
    if errors:
        raise ValidationError(errors)
    cfg = SimConfig(**kwargs)
    problems = cfg.validate()
    if problems:
        raise ValidationError(problems)
    if data.get("replenish", {}).get("mode") == "constant":  # every interval mu_s, as it was
        cfg = cfg._replace(replenish=cfg.replenish._replace(sigma_s=0.0, t_min_s=None))
    return cfg


def _read_json_object(path: str) -> dict[str, Any]:
    """The decoded JSON object of a config file, a leading UTF-8 byte-order
    mark dropped; ParseError otherwise."""
    import json

    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh, parse_int=_int)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path} is not UTF-8 text: {exc}") from exc
    except _TooManyDigits as exc:
        raise ParseError(f"config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also nesting too deep
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config {path} must hold a JSON object")
    return data


def load_config(path: str) -> SimConfig:
    return config_from_dict(_read_json_object(path))
