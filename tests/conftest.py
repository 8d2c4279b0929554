"""Shared fixture builders for the test suite."""

from __future__ import annotations

import os
from datetime import date
from pathlib import Path

import pytest

from picksim import Item, Location, SimConfig
from picksim.cli import main
from picksim.config import ReplenishSettings

ENTRANCE = (-1, 0, 0)
DROPOFF = (-1, 0, 1)
ELEVATOR = (-1, 0, 2)
START = date(2024, 6, 3)

# the ``gen-data`` flags of the golden dataset, whose files ``test_golden``
# pins
DATA_ARGS = ["--seed", "4242", "--items", "12", "--slots", "60", "--lines", "200",
             "--weeks", "2"]

# the replenish settings of a config that sets replenish.mode, as earlier
# versions read it -> the same settings without it
OLD_MODES = {
    "constant": ({"mode": "constant"}, {}),
    "constant-set": ({"mode": "constant", "mu_s": 300.0, "sigma_s": 90, "t_min_s": 5000},
                     {"mu_s": 300.0}),
    "sampled": ({"mode": "sampled"}, {"sigma_s": 60}),
    "sampled-set": ({"mode": "sampled", "mu_s": 300.0, "sigma_s": 90, "t_min_s": 30},
                    {"mu_s": 300.0, "sigma_s": 90, "t_min_s": 30}),
}

# the config keys of earlier versions that no simulation reads, each an
# unknown field now: equipment counts and operators, capability flags,
# sorting times, plan durations, EAT, pallet limits, WI, OIFW, the break
# allowance LR, the simulated-time ceiling, the handlift's speed and turn
# time, and the walking constant
RETIRED_KEYS = (
    "h", "s", "oh", "os", "puh", "pus", "pah", "pas", "tfh", "tfs", "BTs", "PMs", "PPs",
    "PDpu", "PDpa", "PDs", "EAT", "MPW", "MPV", "WI", "OIFW", "LR", "horizon_s", "sph", "tth",
    "walking.constant_s",
)


@pytest.fixture(scope="session")
def golden_dataset(tmp_path_factory) -> Path:
    """The golden dataset, generated once per session and shared by every
    test that reads it, so no test writes into its directory."""
    out = tmp_path_factory.mktemp("golden_data")
    assert main(["gen-data", "--out", str(out)] + DATA_ARGS) == 0
    return out


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
    """Config for the hand-checked three-order fixture: the stacker at
    20 cm/s with a 3 s turn, pick base 10 s, 15 s per pallet, no carton
    term, restock every 100 s sharp."""
    return SimConfig(
        sps=20.0, tts=3.0, BTpu=10.0, PPpu=15.0, PMpu=0.0, BTpa=10.0, PPpa=15.0,
        metric_unit="seconds",
        replenish=ReplenishSettings(mu_s=100.0),
    )._replace(**overrides)


@pytest.fixture
def three_slot_world():
    """The hand-checked fixture.

    Three slots in one row; dedicated slots B->L1, A->L2, C->L3.  Stock:
    A full (10), B partial (5), C exactly the ordered 2.  Three orders
    on one truck arrive as O1:A x4, O2:B x8, O3:C x2, so picking order
    is O3, O2, O1.

    Every leg is rectilinear cm / 20 cm/s plus one 3 s turn (the anchors
    stand on row -1, the slots on row 0).  From the entrance (0, 0):
    B (100, 100) 200 cm -> 13 s, A (100, 200) 300 cm -> 18 s, C (100,
    300) 400 cm -> 23 s.  To the drop-off (0, 60): from B 140 cm -> 10 s,
    from A 240 cm -> 15 s, from C 340 cm -> 20 s.  A visit touching one
    pallet is handled in 10 + 15 = 25 s.

    O3 walks 23 + 20 and is handled 25: done at 68.  O2 reaches B at
    68 + 13 = 81, takes the 5 on hand and waits for the restock at 100
    (19 s); the resume walks 10 to the drop-off and handles the other 3
    in 25: done at 135.  O1 walks 18 + 15 and is handled 25: done at 193.
    Walking 43 + 23 + 33 = 99 s, handling 75 s, waiting 19 s, and
    99 + 75 + 19 = 193.  The put-away at 100 drives from the elevator
    (60, 0) to B, 140 cm -> 10 s, and is handled 25 s.
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
