"""Dataset transforms for metamorphic tests.

A metamorphic relation judges a run by another run on a transformed
input, not by a recorded output (Chen et al., "Metamorphic Testing: A
Review of Challenges and Opportunities", *ACM Computing Surveys* 2018).
So it checks the simulator wherever it can run, also where the
brute-force oracle cannot go, and it does not pin today's output the way
a golden hash does.

Each transform copies a dataset directory and rewrites one file; it is a
pure function of the dataset and one parameter.  The relation each keeps:

* ``shuffle_rows("items.csv")`` - identity: the catalog is keyed by item
  code, every tie between items breaks by code, and a run's outputs
  list no item, so the row order of ``items.csv`` is no input.
* ``shuffle_rows("initial_inventory.csv")`` - identity:
  ``place_initial`` places the initial pallets in its own order
  (descending priority, then item, date and slot), whatever the file's.
* ``shuffle_rows("layout.csv")`` - identity: slots and anchors are keyed
  by id, and every choice among slots (the route, the slot map's
  nearest-to-entrance claim, the storage policies' nearest vacant slot)
  orders them by travel time and route position (``seq_no``, unique per
  slot), never by file position.
* ``shift_orders(days)`` by whole weeks - identity: weeks are counted
  from the first order date, and replenished pallets are dated from
  each week's first order date.  So the only dates that move are later
  than every initial pallet's, and they all move by the same days.
* ``scale_layout(2.0)`` with the stacker's speeds (``sps``,
  ``Lsps``) doubled too - identity: doubling is exact in binary floating
  point, so every coordinate difference doubles exactly, and a doubled
  distance over a doubled speed keeps every travel time's bits.
* ``relabel_items`` - identity: item codes only key the catalog, the
  inventory and the order lines, and break ties by their order, which
  the new codes keep; no output names an item.
* ``shuffle_lines(seed)`` - identity up to the line indices in the
  traces: a route visits an order's lines by slot, not by line index,
  and the order sequence is the row order of the orders' first lines,
  which the transform keeps.  A ``PartialPick`` trace row names the
  index of its line within the order (``line=<k>;``), which moves with
  the line.

Identity means that stdout and every file a run writes, traces
included, are byte-identical to the run on the original dataset.

One transform keeps no relation, and its test pins that:

* ``row_first(index)`` - the row order of ``orders.csv`` is the pick
  sequence: trucks come in the order of their first row, and each
  truck's orders in reverse file order.  Moving the first row of a
  week's second truck to the top makes that truck the first, and the
  results change.
"""

from __future__ import annotations

import csv
import random
import shutil
from datetime import datetime, timedelta
from pathlib import Path

IDENTITY_SHUFFLES = ("items.csv", "initial_inventory.csv", "layout.csv")


def shuffle_rows(src: Path, dst: Path, name: str, seed: int) -> Path:
    """Copy the dataset ``src`` to ``dst`` with the data rows of its file
    ``name`` in a seeded random order, the header still first; returns
    ``dst``."""
    shutil.copytree(src, dst)
    header, *rows = (dst / name).read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    (dst / name).write_text(header + "".join(rows), encoding="utf-8")
    return dst


def _rewrite(src: Path, dst: Path, edits: dict) -> Path:
    """Copy the dataset ``src`` to ``dst`` with ``edit(rows)`` in place of
    the data rows of each file ``name`` of ``edits``, which maps ``name``
    to ``edit``; returns ``dst``."""
    shutil.copytree(src, dst)
    for name, edit in edits.items():
        with open(dst / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        with open(dst / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *edit(rows)])
    return dst


def shift_orders(src: Path, dst: Path, days: int) -> Path:
    """Copy the dataset ``src`` to ``dst`` with every ``order_datetime`` of
    ``orders.csv`` ``days`` days later; returns ``dst``."""
    def shifted(cells: list[str]) -> list[str]:
        when = datetime.fromisoformat(cells[0]) + timedelta(days=days)
        return [when.isoformat(sep=" "), *cells[1:]]

    return _rewrite(src, dst, {"orders.csv": lambda rows: map(shifted, rows)})


def scale_layout(src: Path, dst: Path, factor: float) -> Path:
    """Copy the dataset ``src`` to ``dst`` with every ``x_cm``, ``y_cm`` and
    ``z_cm`` of ``layout.csv`` multiplied by ``factor``; returns ``dst``."""
    def scaled(cells: list[str]) -> list[str]:
        return [*cells[:3], *(repr(factor * float(cell)) for cell in cells[3:6]), *cells[6:]]

    return _rewrite(src, dst, {"layout.csv": lambda rows: map(scaled, rows)})


def relabel_items(src: Path, dst: Path) -> Path:
    """Copy the dataset ``src`` to ``dst`` with every item code of
    ``items.csv``, ``initial_inventory.csv`` and ``orders.csv`` replaced by
    ``P<rank>-`` and the code reversed, ``rank`` being the code's place in
    sorted order (five digits), so the new codes sort as the old ones do;
    returns ``dst``."""
    with open(src / "items.csv", newline="", encoding="utf-8") as fh:
        codes = sorted(row[0] for row in list(csv.reader(fh))[1:])
    new = {code: f"P{rank:05d}-{code[::-1]}" for rank, code in enumerate(codes)}

    def relabel(column: int):
        return lambda rows: ([*row[:column], new[row[column]], *row[column + 1:]]
                             for row in rows)

    return _rewrite(src, dst, {"items.csv": relabel(0), "initial_inventory.csv": relabel(3),
                               "orders.csv": relabel(3)})


def shuffle_lines(src: Path, dst: Path, seed: int) -> Path:
    """Copy the dataset ``src`` to ``dst`` with the lines of each order of
    ``orders.csv`` in a seeded random order among that order's own rows,
    so every row position keeps its order; returns ``dst``."""
    def shuffled(rows: list[list[str]]) -> list[list[str]]:
        positions: dict[str, list[int]] = {}
        for index, row in enumerate(rows):
            positions.setdefault(row[1], []).append(index)
        rng = random.Random(seed)
        out = list(rows)
        for indices in positions.values():
            lines = [rows[index] for index in indices]
            rng.shuffle(lines)
            for index, line in zip(indices, lines):
                out[index] = line
        return out

    return _rewrite(src, dst, {"orders.csv": shuffled})


def row_first(src: Path, dst: Path, index: int) -> Path:
    """Copy the dataset ``src`` to ``dst`` with data row ``index`` (from 0)
    of ``orders.csv`` moved to be its first data row; returns ``dst``."""
    return _rewrite(src, dst, {"orders.csv": lambda rows: [rows[index], *rows[:index],
                                                           *rows[index + 1:]]})
