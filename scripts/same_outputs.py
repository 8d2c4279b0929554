"""Check that a git revision and the working tree give the same outputs.

Usage::

    python scripts/same_outputs.py BASE_REV [--workdir DIR]

The script extracts ``git archive BASE_REV`` to a temporary directory
and runs one matrix of CLI runs on that tree and on the working tree
(each with its own ``src`` on ``PYTHONPATH``).  Both trees read the same
datasets, generated once by the base tree, and run from directories laid
out alike, so every path they print is the same.  Per run it compares
the exit code, stdout, stderr and every file the run writes, and prints
each difference.  It also prints the size of ``src/picksim/*.py`` in
both trees: raw lines, non-blank lines and code lines (no blank lines,
comments or docstrings).  It exits 0 when no output differs and 1
otherwise.

The matrix:

* ``gen-data`` of every dataset below;
* the six policy x picking runs on the full-scale 4-week dataset, with
  distance walking, sampled replenishment, ``--audit`` and ``--trace``;
* the same six on a one-week full-scale dataset at ``replenish.mu_s``
  120, where candidate sets fill and items are parked;
* the README quick start (``simulate`` and ``compare`` on the demo data);
* ``compare`` on the full-scale dataset with distance walking;
* five runs on a dataset whose initial pallets overflow their fixed
  slots, so that ``place_initial`` falls back: fixed storage with area
  and zone picking, fixed with demand allocation, random and fixed-zone;
* a week that can never finish, which exits 1: ``simulate --policy fixed
  --picking area --weeks 1`` with distance walking on a copy of the demo
  data whose every second initial pallet is given to its most-ordered
  item, so the fallback fills another item's slots;
* refusals, runs that exit 2 or 3: ``simulate`` on copies of the demo
  data with one bad cell (an item of 0 pieces per pallet, an order line
  of 0 pieces, an order line of an unknown item, an order line whose
  truck differs from its order's first line, an order line whose
  ``order_datetime`` has a UTC offset in a file of naive times, a
  ``layout.csv`` row whose ``x_cm`` is not a number), and ``compare
  --policy random``;
* ``simulate`` under each of the three policies on a copy of the demo
  data whose first item has a home zone, ``Z9``, with no slot in
  ``layout.csv``: fixed-zone storage refuses it, fixed and random
  storage never read it.

With ``--workdir`` the datasets and outputs are kept in ``DIR``, which
must not exist yet; otherwise they go to a temporary directory that is
removed at the end.  The whole matrix takes about a minute of CPU.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DATASETS = {
    "full4": ["--seed", "12345", "--items", "153", "--slots", "1149", "--lines", "28129",
              "--weeks", "4"],
    "full1": ["--seed", "37035", "--items", "153", "--slots", "1149", "--lines", "7032",
              "--weeks", "1"],
    "demo": ["--items", "25", "--slots", "120", "--lines", "600", "--weeks", "4"],
}
CONFIGS = {
    "distance": {"walking": {"mode": "distance"}, "replenish": {"mode": "sampled"}},
    "saturated": {"walking": {"mode": "distance"}, "replenish": {"mu_s": 120.0}},
    "walk-distance": {"walking": {"mode": "distance"}},
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
}
# copy of the demo data whose first item's home zone has no slot, run under each policy
HOMELESS = ("items.csv", 2, 1, "Z9")


def matrix() -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of every compared run, in run order; paths are
    relative to a tree's run directory, whose ``data`` holds the inputs."""
    runs = [(f"gen-data-{name}", ["gen-data", "--out", f"out/gen-data-{name}", *args])
            for name, args in DATASETS.items()]
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
    for name in REFUSALS:
        runs.append((f"refuse-{name}", ["simulate", "--data", f"data/{name}", "--weeks", "4",
                                         "--out", f"out/refuse-{name}"]))
    runs.append(("refuse-compare-random", ["compare", "--data", "data/demo", "--policy",
                                           "random", "--weeks", "4",
                                           "--out", "out/refuse-compare-random"]))
    for policy in ("fixed", "random", "fixed-zone"):
        runs.append((f"homeless-{policy}", ["simulate", "--data", "data/homeless", "--policy",
                                            policy, "--weeks", "4",
                                            "--out", f"out/homeless-{policy}"]))
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


def run(tree: Path, cwd: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PICKSIM_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
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


def differences(name: str, base: tuple, work: tuple) -> list[str]:
    """One line per way the run ``name`` differs between the base tree
    (first) and the working tree."""
    found = []
    if base[0] != work[0]:
        found.append(f"{name}: exit code {base[0]} vs {work[0]}")
    outputs_a = {"<stdout>": base[1], "<stderr>": base[2], **base[3]}
    outputs_b = {"<stdout>": work[1], "<stderr>": work[2], **work[3]}
    for path in sorted(outputs_a.keys() | outputs_b.keys()):
        if path not in outputs_b:
            found.append(f"{name}: {path} written by the base tree only")
        elif path not in outputs_a:
            found.append(f"{name}: {path} written by the working tree only")
        elif outputs_a[path] != outputs_b[path]:
            found.append(f"{name}: {path} differs at "
                         f"{first_difference(outputs_a[path], outputs_b[path])}")
    return found


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
        edited(data / "demo", data / "homeless", *HOMELESS)
        for name, config in CONFIGS.items():
            (data / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")

        found = []
        runs = matrix()
        for index, (name, argv_) in enumerate(runs, start=1):
            outcomes = []
            for label, tree in (("base", base_tree), ("work", REPO)):
                cwd = work / f"runs-{label}"
                cwd.mkdir(exist_ok=True)
                if not (cwd / "data").exists():
                    (cwd / "data").symlink_to(data)
                done = run(tree, cwd, argv_)
                out = cwd / argv_[argv_.index("--out") + 1]
                outcomes.append((done.returncode, done.stdout, done.stderr, written(out)))
            these = differences(name, *outcomes)
            found += these
            fallbacks = outcomes[0][2].count(b"placed outside its policy slots")
            print(f"[{index}/{len(runs)}] {name}: exit {outcomes[0][0]}, "
                  f"{len(outcomes[0][3])} files, {fallbacks} fallback warning(s), "
                  f"{'same' if not these else f'{len(these)} difference(s)'}", flush=True)
        for line in found:
            print(line)
        for label, tree in ((args.base_rev, base_tree), ("working tree", REPO)):
            raw, nonblank, code = source_lines(tree)
            print(f"src/picksim/*.py at {label}: {raw} lines, {nonblank} non-blank, {code} code")
        print(f"{len(runs)} runs, {len(found)} difference(s) against {args.base_rev}")
        return 1 if found else 0
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
