"""Shared fixture builders for the test suite."""

from __future__ import annotations

import os
from datetime import date
from pathlib import Path

import pytest

from picksim import Item, Location, SimConfig
from picksim.config import WalkSettings, ReplenishSettings

ENTRANCE = (-1, 0, 0)
DROPOFF = (-1, 0, 1)
ELEVATOR = (-1, 0, 2)
START = date(2024, 6, 3)


def child_env() -> dict[str, str]:
    """This environment with the checkout's ``src`` first on ``PYTHONPATH``, so
    a child interpreter imports the package under test without an install."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def anchors(entrance_xy=(0.0, 0.0), dropoff_xy=(0.0, 60.0), elevator_xy=(60.0, 0.0)):
    return [
        Location(ENTRANCE, entrance_xy[0], entrance_xy[1], 0.0, "anchor", -3),
        Location(DROPOFF, dropoff_xy[0], dropoff_xy[1], 0.0, "anchor", -2),
        Location(ELEVATOR, elevator_xy[0], elevator_xy[1], 0.0, "anchor", -1),
    ]


def slot(row, layer, slot_no, x, y, z=0.0, zone="Z1", seq=0):
    return Location((row, layer, slot_no), x, y, z, zone, seq)


def make_item(code, zone="Z1", qpp=10):
    return Item(code, zone, qpp)


def trace_cfg(**overrides) -> SimConfig:
    """Config for the hand-checked three-order fixture: 30 s walking
    constant, pick base 10 s, 15 s per pallet, no carton term, restock
    every 100 s sharp."""
    cfg = SimConfig(
        BTpu=10.0, PPpu=15.0, PMpu=0.0, BTpa=10.0, PPpa=15.0,
        metric_unit="seconds",
        walking=WalkSettings(mode="constant", constant_s=30.0),
        replenish=ReplenishSettings(mode="constant", mu_s=100.0),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture
def three_slot_world():
    """The hand-checked fixture.

    Three slots in one row; dedicated slots B->L1, A->L2, C->L3.  Stock:
    A full (10), B partial (5), C exactly the ordered 2.  Three orders
    on one truck arrive as O1:A x4, O2:B x8, O3:C x2, so picking order
    is O3, O2, O1.  Expected completions 55 / 125 / 180 s with one
    stock-out wait of 15 s on O2 (restock at t=100).
    """
    layout = anchors() + [
        slot(0, 1, 0, 100.0, 100.0, zone="Z1", seq=1),
        slot(0, 1, 1, 100.0, 200.0, zone="Z1", seq=2),
        slot(0, 1, 2, 100.0, 300.0, zone="Z1", seq=3),
    ]
    items = [make_item("A"), make_item("B"), make_item("C")]
    slot_map = {"B": [(0, 1, 0)], "A": [(0, 1, 1)], "C": [(0, 1, 2)]}
    initial = [
        ((0, 1, 0), "B", 5, date(2024, 5, 20)),
        ((0, 1, 1), "A", 10, date(2024, 5, 21)),
        ((0, 1, 2), "C", 2, date(2024, 5, 22)),
    ]
    orders = [
        ("O1", "T1", [("A", 4)]),
        ("O2", "T1", [("B", 8)]),
        ("O3", "T1", [("C", 2)]),
    ]
    return dict(layout=layout, items=items, slot_map=slot_map, initial=initial,
                orders=orders, cfg=trace_cfg(), seed=42, start=START,
                policy="fixed", mode="area")
