"""Synthetic dataset generator: determinism, scale guarantees, loadability."""

from __future__ import annotations

from pathlib import Path

import pytest

from picksim import (
    InputDataError,
    Warehouse,
    load_inventory,
    load_items,
    load_layout,
    load_orders,
)
from picksim.datagen import generate_data


def _read_all(paths: dict[str, str]) -> dict[str, bytes]:
    return {k: Path(p).read_bytes() for k, p in paths.items()}


def test_same_seed_same_bytes(tmp_path):
    a = generate_data(str(tmp_path / "a"), 7, n_items=12, n_slots=40,
                      n_lines=120, weeks=2)
    b = generate_data(str(tmp_path / "b"), 7, n_items=12, n_slots=40,
                      n_lines=120, weeks=2)
    assert _read_all(a) == _read_all(b)


def test_different_seed_different_orders(tmp_path):
    a = generate_data(str(tmp_path / "a"), 7, n_items=12, n_slots=40,
                      n_lines=120, weeks=2)
    b = generate_data(str(tmp_path / "b"), 8, n_items=12, n_slots=40,
                      n_lines=120, weeks=2)
    assert Path(a["orders"]).read_bytes() != Path(b["orders"]).read_bytes()


def test_exact_line_and_item_counts(tmp_path):
    paths = generate_data(str(tmp_path), 3, n_items=9, n_slots=30,
                          n_lines=77, weeks=3)
    items = load_items(paths["items"])
    orders = load_orders(paths["orders"], {i.code: i for i in items})
    assert len(items) == 9
    assert sum(len(o.lines) for o in orders) == 77
    # every order draws distinct items
    for o in orders:
        codes = [ln.item for ln in o.lines]
        assert len(codes) == len(set(codes))


def test_dataset_loads_into_warehouse(tmp_path):
    paths = generate_data(str(tmp_path), 11, n_items=15, n_slots=60,
                          n_lines=150, weeks=2)
    layout = load_layout(paths["layout"])
    items = load_items(paths["items"])
    wh = Warehouse(layout, items)
    initial = load_inventory(paths["inventory"])
    for row in initial:
        wh.place(row.location, row.item, row.qty, row.mfg_date)
    # stock never exceeds a pallet per slot and stays within item bounds
    for loc_id, rec in wh.records.items():
        assert 1 <= rec.qty <= wh.item(rec.item).qty_per_pallet


def test_every_zone_hosts_items_and_slots(tmp_path):
    paths = generate_data(str(tmp_path), 5, n_items=20, n_slots=80,
                          n_lines=100, weeks=1)
    layout = load_layout(paths["layout"])
    items = load_items(paths["items"])
    slot_zones = set(layout.zones)
    item_zones = {it.home_zone for it in items}
    assert len(slot_zones) >= 2
    assert item_zones <= slot_zones
    # home zones spread across the building, not piled into one
    assert len(item_zones) == len(slot_zones)


def test_rejects_more_items_than_slots(tmp_path):
    with pytest.raises(InputDataError, match="cannot store"):
        generate_data(str(tmp_path), 1, n_items=10, n_slots=9,
                      n_lines=5, weeks=1)
    with pytest.raises(InputDataError, match="positive"):
        generate_data(str(tmp_path), 1, n_items=0, n_slots=9,
                      n_lines=5, weeks=1)


@pytest.mark.parametrize("n_lines, weeks", [(3, 4), (0, 1), (-1, 1)])
def test_rejects_fewer_lines_than_weeks(tmp_path, n_lines, weeks):
    """A week without a line has no orders; every run over it would exit 3."""
    with pytest.raises(InputDataError, match="positive, with at least one line per week"):
        generate_data(str(tmp_path), 1, n_items=4, n_slots=12, n_lines=n_lines, weeks=weeks)
    assert not any(tmp_path.iterdir())


def test_one_line_per_week_gives_every_week_orders(tmp_path):
    paths = generate_data(str(tmp_path), 1, n_items=4, n_slots=12, n_lines=4, weeks=4)
    weeks = {line.split(",")[1].split("-")[1] for line in
             Path(paths["orders"]).read_text().splitlines()[1:]}
    assert weeks == {"W1", "W2", "W3", "W4"}
