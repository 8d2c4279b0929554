"""Dataset transforms for metamorphic tests.

A metamorphic relation judges a run by another run on a transformed
input, not by a recorded output (Chen et al., "Metamorphic Testing: A
Review of Challenges and Opportunities", *ACM Computing Surveys* 2018).
So it checks the simulator wherever it can run, also where the
brute-force oracle cannot go, and it does not pin today's output the way
a golden hash does.

Each transform copies a dataset directory and rewrites one file; it is a
pure function of the dataset and a seed.  The relation each keeps:

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

Identity means that stdout and every file a run writes, traces
included, are byte-identical to the run on the original dataset.
"""

from __future__ import annotations

import random
import shutil
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
