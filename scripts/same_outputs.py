"""Check that a git revision and the working tree give the same outputs.

Usage::

    python scripts/same_outputs.py BASE_REV [--workdir DIR]

The script extracts ``git archive BASE_REV`` to a temporary directory
and runs one matrix of CLI runs on that tree and on the working tree
(each with its own ``src`` on ``PYTHONPATH``).  Both trees read the same
datasets, generated once by the base tree, and run from directories laid
out alike, so every path they print is the same.  Per run it compares
the exit code, stdout, stderr and every file the run writes, and prints
the working tree's exit code, the number of files it wrote and of its
fallback warnings, and, for a run that writes traces and results, how
many replenishment visits placed nothing: the traces' ``Replenish``
rows, less one per week (the visit that closes the week is traced but
not handled), less the pallets placed.  Then it prints each difference,
as ``declared`` when ``DECLARED``, the table of the outputs the working
tree means to move against its parent commit, lists it, and as
``UNDECLARED`` otherwise, and the size of ``src/picksim/*.py`` in both
trees: raw lines, non-blank lines and code lines (no blank lines,
comments or docstrings).  It exits 0 when no difference is undeclared
and 1 otherwise.

The matrix:

* ``gen-data`` of every dataset below, and ``gen-data --items 612
  --slots 4596 --lines 28128 --weeks 1``, four times the full-scale
  weekly volume.  A tree that bounds the weekly volume by a visit budget
  of its time ceiling refuses it with exit 3;
* the six policy x picking runs on the full-scale 4-week dataset, with
  distance walking, sampled replenishment, ``--audit`` and ``--trace``;
* the same six on a one-week full-scale dataset at ``replenish.mu_s``
  120, where candidate sets fill and items are parked, and fixed and
  fixed-zone storage skip visits;
* ``simulate --policy random --picking area --weeks 1 --trace`` on that
  one-week dataset with the default config, the shape of the benchmark's
  ``random-area-1week``;
* ``simulate --picking zoning --weeks 2 --trace`` on the demo data under
  each of the three policies with the default config, so walking is
  priced on routes of several sublists;
* ``simulate --policy random --weeks 1 --trace`` on the demo data at
  ``replenish.mu_s`` 40, where the building fills and random storage
  skips visits too (19 of them);
* ``simulate --policy fixed --weeks 2 --trace`` on the golden dataset of
  the tests (``gen-data --seed 4242 --items 12 --slots 60 --lines 200
  --weeks 2``) at ``replenish.mu_s`` 40, a trace short enough to read in
  which the picker takes what is on hand at a short line, resumes there
  after a visit, and fixed storage skips 64 of its 192 handled visits;
* the README quick start (``simulate`` and ``compare`` on the demo data);
* ``compare`` on the full-scale dataset with distance walking;
* five runs on a dataset whose initial pallets overflow their fixed
  slots, so that ``place_initial`` falls back: fixed storage with area
  and zone picking, fixed with demand allocation, random and fixed-zone;
* a week that can never finish, which exits 1: ``simulate --policy fixed
  --picking area --weeks 1`` with distance walking on a copy of the demo
  data whose every second initial pallet is given to its most-ordered
  item, so the fallback fills another item's slots;
* two configs that set the legacy key ``horizon_s``: ``simulate --weeks
  1 --trace`` on the demo data at ``horizon_s`` 3600, and at
  ``horizon_s`` 7200 with ``replenish.mu_s`` 3000.  Both load with one
  warning and run the week to its last order.  A tree that still stops
  a week at ``horizon_s`` exits 1 there after writing a shorter trace.
  The second sets ``replenish.mu_s`` as the JSON integer 3000: a tree
  with a ``replenish.mode`` writes its visit times as integers there
  (``3000``), and one without as floats (``3000.0``), a declared
  difference of its trace;
* ``simulate --policy fixed --weeks 1`` on the full-scale week's orders
  in a building of 16 times the items and slots (``gen-data --seed 12345
  --items 2448 --slots 18384 --lines 7032 --weeks 1``), with distance
  walking at ``replenish.mu_s`` 120.  Its week takes 62,314 minutes of
  simulated time, so a tree with the 30-day ``horizon_s`` exits 1 there;
* refusals, runs that exit 2 or 3: ``simulate`` on copies of the demo
  data with one bad cell (an item of 0 pieces per pallet, an order line
  of 0 pieces, an order line of an unknown item, an order line whose
  truck differs from its order's first line, an order line whose
  ``order_datetime`` has a UTC offset in a file of naive times, a
  ``layout.csv`` row whose ``x_cm`` is not a number), ``simulate --weeks
  1`` on a copy whose first item has pallets of 10**400 pieces, refused
  for a pallet size above 2**53 (a tree without that bound ends in an
  ``OverflowError`` traceback where it prices the loose pieces), and
  ``compare --policy random``;
* numbers of 5,000 digits, more than Python converts to an integer: an
  order line's ``qty`` (``orders.csv`` line 3) and a config file's
  ``BTpu``, each refused with exit 2.  A tree before the digit-limit
  refusal prints Python's own message there, so against such a base the
  stderr of these two runs is the declared difference;
* ``simulate --seed`` of 5,000 sevens, refused with exit 2, and a
  ``layout.csv`` row whose ``x_cm`` is 5,000 sevens, refused with exit 2
  as not finite.  A tree before the integer flags took the digit limit,
  and before a float cell was quoted by its first 200 characters, echoes
  all 5,000 digits there, so against such a base the stderr of these two
  runs is the declared difference;
* date cells of 5,000 characters: an order line's ``order_datetime``
  (``orders.csv`` line 3) and an initial pallet's ``mfg_date``
  (``initial_inventory.csv`` line 2), each refused with exit 2.  A tree
  before a date cell was quoted by its first 200 characters echoes all
  5,000 characters there, so against such a base the stderr of these two
  runs is the declared difference;
* a bad row after a row that spans lines: copies of the demo data in
  which one cell gets a line break in its middle and its row two blank
  lines after it, and a later row one bad cell.  The first order's
  first line gets a break in its ``order_no``, and its second line 0
  pieces (exit 3 at ``orders.csv:6``); the first storage slot gets a
  break in its zone, and the second a ``x_cm`` that is not a number
  (exit 2 at ``layout.csv:9``).  Every tree names the line the bad row
  starts on;
* the seed's one source, ``--seed`` (12345 without it):
  ``simulate --weeks 2 --trace`` on the demo data with sampled
  replenishment and no ``--seed``, once as is and once with
  ``PICKSIM_SEED=1`` in its environment (every run's environment is
  otherwise cleared of ``PICKSIM_SEED``, which a base tree may read), and
  ``simulate`` with a config that sets ``replenish.seed``, which exits 3
  as an unknown field.  A tree that still read those two seed sources
  runs both of the latter at seed 1 or 2 and exits 0, so against such a
  base their outputs are the declared difference;
* one interval rule: ``simulate --weeks 1 --trace`` on the demo data
  under three configs.  ``replenish.mode`` ``constant`` with ``sigma_s``
  90 and ``t_min_s`` 5000 gives the same outputs in every tree, since a
  tree without the mode reads it as ``sigma_s`` 0 with ``t_min_s``
  unset.  ``replenish.sigma_s`` 60 without a mode is inert in a tree
  with the mode (constant by default) and samples in one without, and
  ``replenish.mu_s`` 0.25 visits every 0.25 s in a tree with the mode
  and every 1 s, the floor of every interval, in one without; both are
  declared differences;
* ``simulate`` under each of the three policies on a copy of the demo
  data whose first item has a home zone, ``Z9``, with no slot in
  ``layout.csv``: fixed-zone storage refuses it, fixed and random
  storage never read it;
* ``stats`` on the README's two reference series, ``a.csv`` and
  ``b.csv``, both files and ``a.csv`` alone;
* ``simulate --picking zoning --weeks 2 --trace`` under each of the
  three policies with the default config on a single-height dataset
  (``gen-data --items 6 --slots 20 --lines 60 --weeks 2``: below 24
  slots the generator builds one layer), so walking is priced on a
  layout without lifts;
* ``simulate`` on the demo data with a ``walking`` config that asks for
  another model: ``equipment`` ``handlift`` with distance walking, and
  ``mode`` ``constant``.  A tree in which every leg is walked on the
  stacker refuses both with exit 3 on one line; a tree with handlift or
  constant walking runs them;
* the handlift's spellings in a stacker-walking config:
  ``simulate --weeks 1 --trace`` on the demo data with distance walking
  and ``sph`` 50, ``tth`` 9 and ``walking.equipment`` ``stacker``.  Under
  stacker walking no tree reads ``sph`` or ``tth``, so stdout and every
  file are the same; a tree where they are legacy keys adds the one
  warning line to stderr, the declared difference.

With ``--workdir`` the datasets and outputs are kept in ``DIR``, which
must not exist yet; otherwise they go to a temporary directory that is
removed at the end.  The whole matrix takes about a minute of CPU.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from fnmatch import fnmatchcase
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DATASETS = {
    "full4": ["--seed", "12345", "--items", "153", "--slots", "1149", "--lines", "28129",
              "--weeks", "4"],
    "full1": ["--seed", "37035", "--items", "153", "--slots", "1149", "--lines", "7032",
              "--weeks", "1"],
    "demo": ["--items", "25", "--slots", "120", "--lines", "600", "--weeks", "4"],
    "flat": ["--items", "6", "--slots", "20", "--lines", "60", "--weeks", "2"],
    "golden": ["--seed", "4242", "--items", "12", "--slots", "60", "--lines", "200",
               "--weeks", "2"],
    # the full-scale week's orders in a building of 16 times the items and slots
    "wide1": ["--seed", "12345", "--items", "2448", "--slots", "18384", "--lines", "7032",
              "--weeks", "1"],
}
# 4 times the full-scale weekly volume: a run, not an input, since a tree with a time
# ceiling refuses to generate it
QUADRUPLE = ["--items", "612", "--slots", "4596", "--lines", "28128", "--weeks", "1"]
CONFIGS = {
    "distance": {"walking": {"mode": "distance"}, "replenish": {"mode": "sampled"}},
    "saturated": {"walking": {"mode": "distance"}, "replenish": {"mu_s": 120.0}},
    "walk-distance": {"walking": {"mode": "distance"}},
    "horizon": {"horizon_s": 3600},
    "horizon-waiting": {"horizon_s": 7200, "replenish": {"mu_s": 3000}},
    "handlift": {"walking": {"mode": "distance", "equipment": "handlift"}},
    "constant-walking": {"walking": {"mode": "constant"}},
    "handlift-era": {"sph": 50.0, "tth": 9.0,
                     "walking": {"mode": "distance", "equipment": "stacker"}},
    "skipping": {"replenish": {"mu_s": 40.0}},
    "sampled": {"replenish": {"mode": "sampled"}},
    "seeded": {"replenish": {"mode": "sampled", "seed": 2}},
    "constant-set": {"replenish": {"mode": "constant", "sigma_s": 90, "t_min_s": 5000}},
    "sigma-only": {"replenish": {"sigma_s": 60}},
    "sub-second": {"replenish": {"mu_s": 0.25}},
}
COMBOS = [(policy, picking) for policy in ("fixed", "random", "fixed-zone")
          for picking in ("area", "zoning")]
# refused copy of the demo data -> (file, line, column, new cell)
REFUSALS = {
    "items-no-pieces": ("items.csv", 3, 2, "0"),
    "orders-no-pieces": ("orders.csv", 3, 4, "0"),
    "orders-unknown-item": ("orders.csv", 3, 3, "NOPE"),
    # line 3 of the demo orders is the second line of the first order
    "orders-other-truck": ("orders.csv", 3, 2, "TRK-OTHER"),
    "orders-offset-time": ("orders.csv", 3, 0, "2024-06-03 09:00:00+02:00"),
    "layout-bad-x": ("layout.csv", 5, 3, "x"),
    "orders-long-qty": ("orders.csv", 3, 4, "7" * 5000),
    "layout-long-x": ("layout.csv", 5, 3, "7" * 5000),
    # line 3 is the second line of the first order, so its date is parsed
    "orders-long-date": ("orders.csv", 3, 0, "x" * 5000),
    "inventory-long-date": ("initial_inventory.csv", 2, 5, "x" * 5000),
}
# refused copy of the demo data whose bad row follows a row with a line break in
# a quoted cell and two blank lines -> (file, line and column of the cell given the
# break, line, column and new cell of the bad row), lines as in the demo data
SPANNED = {
    # the first order's first line becomes an order of its own, and its second line,
    # now on line 6, the first line of the order, with 0 pieces
    "orders-after-break": ("orders.csv", 2, 1, 3, 4, "0"),
    # the first storage slot's zone, and the second slot's x_cm, now on line 9
    "layout-after-break": ("layout.csv", 5, 6, 6, 3, "x"),
}
# a config file whose number has more digits than Python converts (``json.dumps`` refuses it)
LONG_NUMBER_CONFIG = '{"BTpu": ' + "7" * 5000 + "}"
# run name -> what its environment sets beyond this one's
ENVIRONMENTS = {"demo-sampled-env-seed": {"PICKSIM_SEED": "1"}}
# copy of the demo data whose first item's home zone has no slot, run under each policy
HOMELESS = ("items.csv", 2, 1, "Z9")
# the README's reference series for ``stats``: file stem -> weekly metrics from week 1
SERIES = {"a": [103, 143, 122, 97], "b": [148, 150, 129, 135]}
# the handling of one put-away, BTpa + PPpa at their defaults, which no config changes
PUT_HANDLE_S = 25.0
# The differences the working tree declares against its parent commit: run
# name -> the outputs (``<exit>``, ``<stdout>``, ``<stderr>`` or a written
# file) that may differ, both as ``fnmatch`` patterns.  Every other
# difference is undeclared.  A change that moves outputs on purpose
# replaces the table.  Here: a date cell that does not parse was quoted
# whole and is now quoted by its first 200 characters.
DECLARED: dict[str, tuple[str, ...]] = {
    "refuse-orders-long-date": ("<stderr>",),
    "refuse-inventory-long-date": ("<stderr>",),
}


def matrix() -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of every compared run, in run order; paths are
    relative to a tree's run directory, whose ``data`` holds the inputs."""
    runs = [(f"gen-data-{name}", ["gen-data", "--out", f"out/gen-data-{name}", *args])
            for name, args in DATASETS.items()]
    runs.append(("gen-data-quadruple", ["gen-data", "--out", "out/gen-data-quadruple",
                                        *QUADRUPLE]))
    for policy, picking in COMBOS:
        runs.append((f"full4-{policy}-{picking}", [
            "simulate", "--data", "data/full4", "--config", "data/distance.json",
            "--policy", policy, "--picking", picking, "--weeks", "4", "--seed", "7",
            "--audit", "--trace", "--out", f"out/full4-{policy}-{picking}"]))
    for policy, picking in COMBOS:
        runs.append((f"full1-{policy}-{picking}", [
            "simulate", "--data", "data/full1", "--config", "data/saturated.json",
            "--policy", policy, "--picking", picking, "--weeks", "1", "--seed", "7",
            "--audit", "--trace", "--out", f"out/full1-{policy}-{picking}"]))
    runs.append(("full1-random-area-default", [
        "simulate", "--data", "data/full1", "--policy", "random", "--picking", "area",
        "--weeks", "1", "--trace", "--out", "out/full1-random-area-default"]))
    for policy in ("fixed", "random", "fixed-zone"):
        runs.append((f"demo-zoning-{policy}", [
            "simulate", "--data", "data/demo", "--policy", policy, "--picking", "zoning",
            "--weeks", "2", "--trace", "--out", f"out/demo-zoning-{policy}"]))
    runs.append(("demo-random-skipping", [
        "simulate", "--data", "data/demo", "--config", "data/skipping.json", "--policy",
        "random", "--weeks", "1", "--trace", "--out", "out/demo-random-skipping"]))
    runs.append(("golden-fixed-skipping", [
        "simulate", "--data", "data/golden", "--config", "data/skipping.json", "--policy",
        "fixed", "--weeks", "2", "--trace", "--out", "out/golden-fixed-skipping"]))
    runs.append(("demo-simulate", [
        "simulate", "--data", "data/demo", "--policy", "fixed", "--allocation", "demand",
        "--picking", "area", "--weeks", "4", "--seed", "12345", "--out", "out/demo-run"]))
    runs.append(("demo-compare", ["compare", "--data", "data/demo", "--weeks", "4",
                                  "--out", "out/demo-cmp"]))
    runs.append(("full4-compare", ["compare", "--data", "data/full4", "--config",
                                   "data/distance.json", "--weeks", "4", "--seed", "7",
                                   "--out", "out/full4-compare"]))
    for policy, picking, allocation in (("fixed", "area", "homogeneous"),
                                        ("fixed", "zoning", "homogeneous"),
                                        ("fixed", "area", "demand"),
                                        ("random", "area", None), ("fixed-zone", "area", None)):
        name = f"overflow-{policy}-{picking}" + (f"-{allocation}" if allocation else "")
        runs.append((name, [
            "simulate", "--data", "data/overflow", "--config", "data/distance.json",
            "--policy", policy, "--picking", picking, "--weeks", "4", "--seed", "7",
            "--audit", "--trace", "--out", f"out/{name}",
            *(["--allocation", allocation] if allocation else [])]))
    runs.append(("stuck-fixed-area", [
        "simulate", "--data", "data/stuck", "--config", "data/walk-distance.json",
        "--policy", "fixed", "--picking", "area", "--weeks", "1", "--out", "out/stuck"]))
    runs.append(("wide1-fixed-saturated", [
        "simulate", "--data", "data/wide1", "--config", "data/saturated.json", "--policy",
        "fixed", "--weeks", "1", "--out", "out/wide1-fixed-saturated"]))
    for config in ("horizon", "horizon-waiting"):
        runs.append((f"demo-{config}", [
            "simulate", "--data", "data/demo", "--config", f"data/{config}.json", "--weeks", "1",
            "--trace", "--out", f"out/demo-{config}"]))
    for name in [*REFUSALS, *SPANNED]:
        runs.append((f"refuse-{name}", ["simulate", "--data", f"data/{name}", "--weeks", "4",
                                         "--out", f"out/refuse-{name}"]))
    runs.append(("refuse-oversized", ["simulate", "--data", "data/oversized", "--weeks", "1",
                                      "--out", "out/refuse-oversized"]))
    runs.append(("refuse-long-config", ["simulate", "--data", "data/demo", "--config",
                                        "data/long-number.json", "--weeks", "1",
                                        "--out", "out/refuse-long-config"]))
    runs.append(("refuse-long-seed", ["simulate", "--data", "data/demo", "--weeks", "1",
                                      "--seed", "7" * 5000, "--out", "out/refuse-long-seed"]))
    for name in ("demo-sampled", "demo-sampled-env-seed"):
        runs.append((name, ["simulate", "--data", "data/demo", "--config", "data/sampled.json",
                            "--weeks", "2", "--trace", "--out", f"out/{name}"]))
    for config in ("constant-set", "sigma-only", "sub-second"):
        runs.append((f"demo-{config}", [
            "simulate", "--data", "data/demo", "--config", f"data/{config}.json", "--weeks", "1",
            "--trace", "--out", f"out/demo-{config}"]))
    runs.append(("refuse-seeded-config", ["simulate", "--data", "data/demo", "--config",
                                          "data/seeded.json", "--weeks", "1", "--trace",
                                          "--out", "out/refuse-seeded-config"]))
    runs.append(("refuse-compare-random", ["compare", "--data", "data/demo", "--policy",
                                           "random", "--weeks", "4",
                                           "--out", "out/refuse-compare-random"]))
    for policy in ("fixed", "random", "fixed-zone"):
        runs.append((f"homeless-{policy}", ["simulate", "--data", "data/homeless", "--policy",
                                            policy, "--weeks", "4",
                                            "--out", f"out/homeless-{policy}"]))
    runs.append(("stats-pair", ["stats", "--weekly", "data/a.csv", "data/b.csv",
                                "--out", "out/stats-pair"]))
    runs.append(("stats-one", ["stats", "--weekly", "data/a.csv", "--out", "out/stats-one"]))
    for policy in ("fixed", "random", "fixed-zone"):
        runs.append((f"flat-{policy}", [
            "simulate", "--data", "data/flat", "--policy", policy, "--picking", "zoning",
            "--weeks", "2", "--trace", "--out", f"out/flat-{policy}"]))
    for config in ("handlift", "constant-walking"):
        runs.append((f"refuse-demo-{config}", [
            "simulate", "--data", "data/demo", "--config", f"data/{config}.json", "--weeks", "4",
            "--out", f"out/refuse-demo-{config}"]))
    runs.append(("demo-handlift-era", [
        "simulate", "--data", "data/demo", "--config", "data/handlift-era.json", "--weeks", "1",
        "--trace", "--out", "out/demo-handlift-era"]))
    return runs


def overflow(src: Path, dst: Path, every: int) -> None:
    """Copy the dataset ``src`` to ``dst`` with every ``every``-th initial
    pallet, from the first, given to the item with the most order lines
    (its pieces cut to that item's pallet size), so that item's pallets
    overflow its slots under homogeneous allocation.  At ``every`` 5 the
    item is picked often enough that the pallets it puts on other items'
    slots drain within the week; at 2 they block an item the picker waits
    for."""
    shutil.copytree(src, dst)
    with open(src / "items.csv", newline="", encoding="utf-8") as fh:
        per_pallet = {row["item_code"]: int(row["qty_per_pallet"]) for row in csv.DictReader(fh)}
    with open(src / "orders.csv", newline="", encoding="utf-8") as fh:
        lines = Counter(row["item_code"] for row in csv.DictReader(fh))
    code = min(lines, key=lambda item: (-lines[item], item))
    with open(src / "initial_inventory.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    for row in rows[::every]:
        row[3] = code
        row[4] = str(min(int(row[4]), per_pallet[code]))
    with open(dst / "initial_inventory.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def edited(src: Path, dst: Path, name: str, line: int, column: int, value: str) -> None:
    """Copy the dataset ``src`` to ``dst`` with cell ``column`` (from 0) of
    line ``line`` (from 1) of its file ``name`` set to ``value``."""
    shutil.copytree(src, dst)
    with open(src / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][column] = value
    with open(dst / name, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def spanned(src: Path, dst: Path, name: str, line: int, column: int, bad_line: int,
            bad_column: int, value: str) -> None:
    """Copy the dataset ``src`` to ``dst`` with cell ``bad_column`` of line
    ``bad_line`` of its file ``name`` set to ``value``, and cell ``column``
    of the earlier line ``line`` given a line break in its middle, its row
    followed by two blank lines.  Lines count from 1 in ``src``."""
    edited(src, dst, name, bad_line, bad_column, value)
    with open(dst / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cell = rows[line - 1][column]
    rows[line - 1][column] = cell[:len(cell) // 2] + "\n" + cell[len(cell) // 2:]
    rows[line:line] = [[], []]
    with open(dst / name, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def oversized(src: Path, dst: Path) -> None:
    """Copy the dataset ``src`` to ``dst`` with its first item's pallet size
    set to 10**400, each of that item's initial pallets full and each of
    its order lines one piece short of a pallet, so the first pick of it
    takes 10**400 - 1 loose pieces."""
    shutil.copytree(src, dst)
    pallet = 10 ** 400
    code = None
    for name, key, column, value in (("items.csv", 0, 2, pallet),
                                     ("initial_inventory.csv", 3, 4, pallet),
                                     ("orders.csv", 3, 4, pallet - 1)):
        with open(src / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        code = code or rows[0][0]
        for row in rows:
            if row[key] == code:
                row[column] = str(value)
        with open(dst / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def source_lines(tree: Path) -> tuple[int, int, int]:
    """Raw, non-blank and code lines of ``src/picksim/*.py`` in ``tree``.
    A code line is neither blank nor a comment, and lies in no docstring
    (the first statement of a module, class or function, if it is a
    string, as ``ast`` parses it)."""
    raw = nonblank = code = 0
    for path in sorted((tree / "src" / "picksim").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings: set[int] = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        for number, line in enumerate(text.splitlines(), start=1):
            raw += 1
            stripped = line.strip()
            nonblank += bool(stripped)
            code += bool(stripped) and not stripped.startswith("#") and number not in docstrings
    return raw, nonblank, code


def skipped_visits(files: dict[str, bytes]) -> int | None:
    """Replenishment visits a run handled without placing a pallet: its
    traces' ``Replenish`` rows, less the one per week that closes the week
    unhandled, less the pallets placed (each week's ``put_handle_s`` over
    ``PUT_HANDLE_S``); None for a run that wrote no trace or no results."""
    traces = [data for name, data in files.items() if name.startswith("trace_")]
    if not traces or "results.csv" not in files:
        return None
    weeks = list(csv.DictReader(io.StringIO(files["results.csv"].decode("utf-8"))))
    placed = sum(round(float(week["put_handle_s"]) / PUT_HANDLE_S) for week in weeks)
    return sum(data.count(b",Replenish,") for data in traces) - len(weeks) - placed


def run(tree: Path, cwd: Path, argv: list[str],
        extra: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """The CLI of ``tree`` on ``argv`` in ``cwd``, in this environment less
    ``PICKSIM_SEED`` (a base tree from before ``--seed`` became the only
    seed source reads it) and plus ``extra``."""
    env = {key: value for key, value in os.environ.items() if key != "PICKSIM_SEED"}
    env.update(extra or {}, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "picksim.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)


def written(out: Path) -> dict[str, bytes]:
    """Every file under ``out``, keyed by its path relative to ``out``."""
    if not out.exists():
        return {}
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def first_difference(a: bytes, b: bytes) -> str:
    """The first line at which two different outputs differ, and its two
    versions (an output that ends early reads ``b''`` there)."""
    pairs = zip(a.splitlines(keepends=True) + [b""], b.splitlines(keepends=True) + [b""])
    line, (x, y) = next((i, pair) for i, pair in enumerate(pairs, start=1)
                        if pair[0] != pair[1])
    return f"line {line}: {x!r:.120} vs {y!r:.120}"


def differences(name: str, base: tuple, work: tuple) -> list[tuple[str, str]]:
    """``(output, line)`` per way the run ``name`` differs between the base
    tree (first) and the working tree; the output is ``<exit>``,
    ``<stdout>``, ``<stderr>`` or the path of a written file."""
    found = []
    if base[0] != work[0]:
        found.append(("<exit>", f"{name}: exit code {base[0]} vs {work[0]}"))
    outputs_a = {"<stdout>": base[1], "<stderr>": base[2], **base[3]}
    outputs_b = {"<stdout>": work[1], "<stderr>": work[2], **work[3]}
    for path in sorted(outputs_a.keys() | outputs_b.keys()):
        if path not in outputs_b:
            found.append((path, f"{name}: {path} written by the base tree only"))
        elif path not in outputs_a:
            found.append((path, f"{name}: {path} written by the working tree only"))
        elif outputs_a[path] != outputs_b[path]:
            found.append((path, f"{name}: {path} differs at "
                                f"{first_difference(outputs_a[path], outputs_b[path])}"))
    return found


def declared(name: str, output: str) -> bool:
    """Whether ``DECLARED`` lists the output ``output`` of the run ``name``."""
    return any(fnmatchcase(name, run) and fnmatchcase(output, pattern)
               for run, patterns in DECLARED.items() for pattern in patterns)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    work = args.workdir or Path(tempfile.mkdtemp(prefix="same_outputs_"))
    work.mkdir(parents=True, exist_ok=args.workdir is None)
    try:
        base_tree = work / "base"
        base_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.base_rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        data = work / "data"
        data.mkdir()
        for name, gen in DATASETS.items():
            made = run(base_tree, data, ["gen-data", "--out", name, *gen])
            if made.returncode:
                sys.stderr.write(made.stderr.decode())
                return 2
        overflow(data / "demo", data / "overflow", 5)
        overflow(data / "demo", data / "stuck", 2)
        for name, edit in REFUSALS.items():
            edited(data / "demo", data / name, *edit)
        for name, edit in SPANNED.items():
            spanned(data / "demo", data / name, *edit)
        edited(data / "demo", data / "homeless", *HOMELESS)
        oversized(data / "demo", data / "oversized")
        for name, config in CONFIGS.items():
            (data / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        (data / "long-number.json").write_text(LONG_NUMBER_CONFIG, encoding="utf-8")
        for name, values in SERIES.items():
            (data / f"{name}.csv").write_text("week,metric\n" + "".join(
                f"{week},{value}\n" for week, value in enumerate(values, start=1)),
                encoding="utf-8")

        found = []
        runs = matrix()
        for index, (name, argv_) in enumerate(runs, start=1):
            outcomes = []
            for label, tree in (("base", base_tree), ("work", REPO)):
                cwd = work / f"runs-{label}"
                cwd.mkdir(exist_ok=True)
                if not (cwd / "data").exists():
                    (cwd / "data").symlink_to(data)
                done = run(tree, cwd, argv_, ENVIRONMENTS.get(name))
                out = cwd / argv_[argv_.index("--out") + 1]
                outcomes.append((done.returncode, done.stdout, done.stderr, written(out)))
            these = differences(name, *outcomes)
            found += [(name, output, line) for output, line in these]
            expected = all(declared(name, output) for output, _ in these)
            code, _, stderr, files = outcomes[1]
            fallbacks = stderr.count(b"placed outside its policy slots")
            skips = skipped_visits(files)
            print(f"[{index}/{len(runs)}] {name}: exit {code}, "
                  f"{len(files)} files, {fallbacks} fallback warning(s), "
                  + ("" if skips is None else f"{skips} skipped visit(s), ")
                  + ("same" if not these else f"{len(these)} difference(s)"
                     + (", all declared" if expected else "")), flush=True)
        undeclared = 0
        for name, output, line in found:
            undeclared += not declared(name, output)
            print(("declared: " if declared(name, output) else "UNDECLARED: ") + line)
        for label, tree in ((args.base_rev, base_tree), ("working tree", REPO)):
            raw, nonblank, code = source_lines(tree)
            print(f"src/picksim/*.py at {label}: {raw} lines, {nonblank} non-blank, {code} code")
        print(f"{len(runs)} runs, {len(found)} difference(s) against {args.base_rev}, "
              f"{undeclared} undeclared")
        return 1 if undeclared else 0
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
