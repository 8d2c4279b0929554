"""A long input value is quoted by at most its first 200 characters.

A value of 5,000 characters, letters or digits, goes into one position at
a time: each cell of a data row and of the header of the four dataset
files, and each key and value position of a config (top level,
``replenish``, ``walking``).  ``cli.main`` runs ``simulate`` on it
in-process, and the run ends in the exit code of today's rules with one
line of stderr, of at most 600 bytes, or with none when it succeeds.

Two kinds of value parse whatever their length and are quoted where the
run names them: a location id built of a 4,000-digit integer, in the
refusals of the layout and initial-inventory checks, and an item code of
5,000 characters in a valid dataset, in the fallback warnings of
``place_initial`` and the message of a week that gets stuck.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import logging
import shutil
from pathlib import Path

import pytest

from picksim import ReplenishSettings, SimConfig
from picksim.cli import main
from picksim.config import OLD_WALKING
from picksim.picking import ORDERS_HEADER
from picksim.warehouse import INVENTORY_HEADER, ITEMS_HEADER, LAYOUT_HEADER

LONG = {"letters": "x" * 5000, "digits": "7" * 5000}
# dataset file -> its header and the data row given the long value: a storage
# slot's, and an order's second line, so the line is checked against its first
ROWS = {"layout.csv": (LAYOUT_HEADER, 5), "items.csv": (ITEMS_HEADER, 2),
        "initial_inventory.csv": (INVENTORY_HEADER, 2), "orders.csv": (ORDERS_HEADER, 3)}
# the data cells whose long value still parses, and the exit code of their run;
# every other cell, a number or a date, exits 2, as does every header cell
PARSING = {
    ("layout.csv", "zone"): 0,  # a zone of its own
    ("items.csv", "item_code"): 3,  # the initial pallets name an item that is gone
    ("items.csv", "home_zone"): 0,  # read by fixed-zone storage only, which refuses it
    ("initial_inventory.csv", "item_code"): 3,
    ("orders.csv", "order_no"): 0,  # an order of its own
    ("orders.csv", "truck_id"): 3,  # differs from the first line's
    ("orders.csv", "item_code"): 3,
}
POLICIES = ("fixed", "random", "fixed-zone")

CELLS = [(name, column, line) for name, (header, row) in ROWS.items() for column in header
         for line in (1, row)]
# config key paths: a long key under each, and a long value at each key
OBJECTS = [(), ("replenish",), ("walking",)]
VALUES = [*((field,) for field in SimConfig._fields), ("walking",),
          *(("replenish", field) for field in (*ReplenishSettings._fields, "mode")),
          *(("walking", field) for field in OLD_WALKING)]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("long_values")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", str(root / "data"), "--seed", "3", "--items", "4",
                     "--slots", "16", "--lines", "45", "--weeks", "1"]) == 0
    return root / "data"


def _edited(tiny: Path, tmp_path: Path, name: str, value: str, *cells) -> Path:
    """A copy of ``tiny`` whose file ``name`` holds ``value`` in each of the
    ``(line, column name)`` ``cells``, lines counted from 1."""
    data = tmp_path / "data"
    shutil.copytree(tiny, data)
    _set_cells(data / name, value, *cells)
    return data


def _set_cells(path: Path, value: str, *cells) -> None:
    """Set each ``(line, column name)`` of ``cells`` of the CSV file ``path``
    to ``value``, lines counted from 1."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = list(rows[0])
    for line, column in cells:
        rows[line - 1][header.index(column)] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _same_outputs():
    """``scripts/same_outputs.py``, whose dataset builders some tests reuse."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``cli.main`` on ``argv``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(code: int, err: str, expected: int) -> None:
    assert code == expected, err[:600]
    assert err.count("\n") == (code != 0) and err.endswith("\n") == (code != 0), err[:600]
    assert len(err.encode()) <= 600, err[:600]


@pytest.mark.parametrize("value", LONG.values(), ids=LONG)
@pytest.mark.parametrize("name, column, line", CELLS,
                         ids=[f"{name[:-4]}-{column}-line{line}" for name, column, line in CELLS])
def test_a_long_dataset_cell(tiny, tmp_path, name, column, line, value):
    data = _edited(tiny, tmp_path, name, value, (line, column))
    expected = PARSING.get((name, column), 2) if line > 1 else 2
    for policy in POLICIES:
        # fixed-zone storage alone reads a home zone, and refuses one without a slot
        refused = policy == "fixed-zone" and line > 1 and column == "home_zone"
        _check(*_run(["simulate", "--data", str(data), "--weeks", "1", "--policy", policy]),
               3 if refused else expected)


@pytest.mark.parametrize("value", LONG.values(), ids=LONG)
@pytest.mark.parametrize("position", [("key", path) for path in OBJECTS]
                         + [("value", path) for path in VALUES],
                         ids=lambda p: f"{p[0]}-{'.'.join(p[1]) or 'top'}")
def test_a_long_config_key_or_value_exits_3(tiny, tmp_path, position, value):
    """Every config value is checked by its type or its choices, so a long
    string anywhere is refused, and a long key as an unknown field."""
    kind, path = position
    config: object = 1 if kind == "key" else value
    for key in reversed(path if kind == "value" else (*path, value)):
        config = {key: config}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    _check(*_run(["simulate", "--data", str(tiny), "--config", str(cfg), "--weeks", "1"]), 3)


def test_a_long_item_code_twice_exits_3_as_a_duplicate(tiny, tmp_path):
    """The rule checks of a loader quote by the same cut: two items of one
    long code."""
    data = _edited(tiny, tmp_path, "items.csv", LONG["letters"], (2, "item_code"),
                   (3, "item_code"))
    code, err = _run(["simulate", "--data", str(data), "--weeks", "1"])
    _check(code, err, 3)
    assert err == f"error: {data / 'items.csv'}:3: duplicate item code {'x' * 200}\n"


# an integer that still parses (below Python's 4,300-digit limit), so a location id
# built of it is read, and quoted by the messages about that location
LONG_ROW = "7" * 4000
LONG_ID = "(" + "7" * 199  # its location id as a message quotes it
# case -> the tiny dataset's edits, each (file, line, column, value), and the error
LONG_IDS = {
    # two storage slots of layer 1, slot 0 moved into one row
    "duplicate": ([("layout.csv", 5, "row", LONG_ROW), ("layout.csv", 17, "row", LONG_ROW)],
                  f"layout.csv:17: duplicate location id {LONG_ID}\n"),
    "anchor-row": ([("layout.csv", 2, "slot", LONG_ROW)],
                   f"layout.csv:2: row -1 holds only the anchors (-1, 0, 0), (-1, 0, 1) and "
                   f"(-1, 0, 2), got {'(-1, 0, ' + '7' * 192}\n"),
    "repeated-seq-no": ([("layout.csv", 5, "seq_no", LONG_ROW), ("layout.csv", 6, "seq_no",
                                                                 LONG_ROW)],
                        f"layout.csv:6: seq_no {'7' * 200} of slot (0, 1, 1) repeats an "
                        "earlier storage slot's\n"),
    "off-layout": ([("initial_inventory.csv", 2, "row", LONG_ROW)],
                   f"initial_inventory.csv: pallet of SKU0004 on {LONG_ID}, not a storage "
                   "slot of "),
    # one slot in a row of its own, which holds the first two initial pallets
    "two-pallets": ([("layout.csv", 5, "row", LONG_ROW),
                     ("initial_inventory.csv", 2, "row", LONG_ROW),
                     ("initial_inventory.csv", 3, "row", LONG_ROW),
                     ("initial_inventory.csv", 3, "slot", "0")],
                    f"initial_inventory.csv: two pallets on slot {LONG_ID}\n"),
}


@pytest.mark.parametrize("edits, message", LONG_IDS.values(), ids=LONG_IDS)
def test_a_long_location_id_is_quoted_by_200_characters(tiny, tmp_path, edits, message):
    """A location id of a 4,000-digit row (or slot, or a seq_no of as many
    digits), which parses, is quoted by the first 200 characters of its
    text: one line of at most 600 bytes, exit 3."""
    data = tmp_path / "data"
    shutil.copytree(tiny, data)
    for name, line, column, value in edits:
        _set_cells(data / name, value, (line, column))
    code, err = _run(["simulate", "--data", str(data), "--weeks", "1"])
    _check(code, err, 3)
    assert message in err


def test_a_long_item_code_is_quoted_by_200_characters_in_warnings_and_a_stuck_week(
        tmp_path, caplog):
    """``scripts/same_outputs.py``'s overflow copy of the demo data, its
    overflowing item given a code of 5,000 characters: the pallets of that
    item that fall back are warned of, and the week gets stuck where the
    item's pallets fill another item's slots.  Each quotes the code by its
    first 200 characters."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", str(tmp_path / "demo"), "--items", "25",
                     "--slots", "120", "--lines", "600", "--weeks", "4"]) == 0
    same_outputs = _same_outputs()
    same_outputs.overflow(tmp_path / "demo", tmp_path / "overflow", 5)
    data = tmp_path / "overflow-long-item"
    same_outputs.long_item(tmp_path / "overflow", data)
    with caplog.at_level(logging.WARNING, logger="picksim.storage"):
        exit_code, err = _run(["simulate", "--data", str(data), "--policy", "fixed",
                               "--weeks", "1"])
    _check(exit_code, err, 1)
    assert f"its candidate slots hold pallets of {'x' * 200}\n" in err
    warned = [record.getMessage() for record in caplog.records]
    assert f"initial pallet of {'x' * 200} placed outside its policy slots (all full)" in warned
    for text in [err, *warned]:
        assert "x" * 201 not in text
