"""Replenishment: interval sampling, product selection, chain scheduling."""

from __future__ import annotations

import random
from collections import Counter
from datetime import date

import pytest

from conftest import anchors, make_item, slot, trace_cfg
from runners import engine_run
from picksim import (
    AllocationRule,
    DataPaths,
    InputDataError,
    PickingMode,
    PolicyKind,
    Replenish,
    Replenisher,
    ScenarioSpec,
    SimConfig,
    Warehouse,
    run_scenario,
)
from picksim.config import ReplenishSettings
from picksim.datagen import generate_data
from picksim.replenishment import ReplenishmentSampler

START = date(2024, 6, 3)


def _sampler(mode="constant", mu=600.0, sigma=60.0, seed=1, t_min=None):
    cfg = SimConfig(replenish=ReplenishSettings(mode=mode, mu_s=mu, sigma_s=sigma,
                                                t_min_s=t_min))
    return ReplenishmentSampler.from_config(cfg, seed)


# -- sampler --------------------------------------------------------------


def test_constant_sampler_returns_mu_forever():
    s = _sampler()
    assert [s.draw() for _ in range(5)] == [600.0] * 5


def test_sampled_intervals_match_seeded_gaussian():
    s = _sampler(mode="sampled", mu=600.0, sigma=60.0, seed=77)
    rng = random.Random(77)
    expected = [max(rng.gauss(600.0, 60.0), 420.0) for _ in range(50)]
    assert [s.draw() for _ in range(50)] == expected


def test_sampled_intervals_clamp_at_floor():
    s = _sampler(mode="sampled", mu=10.0, sigma=500.0, seed=3, t_min=9.5)
    draws = [s.draw() for _ in range(200)]
    assert min(draws) == 9.5  # huge sigma: the floor certainly triggers
    assert all(d >= 9.5 for d in draws)


def test_same_seed_same_stream():
    a = _sampler(mode="sampled", seed=5)
    b = _sampler(mode="sampled", seed=5)
    assert [a.draw() for _ in range(10)] == [b.draw() for _ in range(10)]


# -- selection and chaining (driven through tiny simulations) -------------


def _two_item_world():
    layout = anchors() + [
        slot(0, 1, 0, 100.0, 100.0, seq=1),
        slot(0, 1, 1, 100.0, 200.0, seq=2),
        slot(0, 1, 2, 100.0, 300.0, seq=3),
    ]
    items = [make_item("A", qpp=10), make_item("B", qpp=10)]
    return layout, items


def test_lowest_stock_item_is_restocked_first():
    layout, items = _two_item_world()
    # B has less stock than A; order stalls on A so restocks keep coming
    initial = [((0, 1, 0), "A", 6, date(2024, 5, 1)),
               ((0, 1, 1), "B", 2, date(2024, 5, 1))]
    orders = [("O1", "T", [("A", 16)])]
    _, _, _, engine = engine_run(layout, items, initial, "random", None,
                                 orders, "area", trace_cfg(), 1, START)
    rp_times = [ev.time for ev in engine.trace
                if isinstance(ev.kind, Replenish)]
    assert rp_times[0] == 100.0
    # first restock goes to B (2 on hand beats A's 6 at t=100)
    # afterwards A (0 on hand after the partial grab) wins
    # O1 finishes at 200 + handling once the second A pallet lands
    assert engine.now >= 200.0


def test_restock_ties_break_by_item_code():
    layout, items = _two_item_world()
    # empty warehouse: both items sit at 0 on hand when the restocker
    # first fires, so only the item-code tiebreak decides who gets stock
    orders = [("O1", "T", [("B", 8)])]
    completions, _, metrics, engine = engine_run(layout, items, [], "random",
                                                 None, orders, "area",
                                                 trace_cfg(), 1, START)
    # t=100: tie (0, 'A') < (0, 'B') -> A restocked first (uselessly),
    # B lands on the t=200 visit and the pick finishes at 200 + 25.
    # A B-first tiebreak would have finished at 125 instead.
    assert completions == [225.0]
    assert metrics.wait_s == 170.0  # 30..100 and 100..200
    rp_times = [ev.time for ev in engine.trace
                if isinstance(ev.kind, Replenish)]
    assert rp_times == [100.0, 200.0, 300.0]  # final visit sees all done


def test_next_visit_scheduled_even_when_nothing_fits():
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1)]
    items = [make_item("A", qpp=10)]
    # the only slot stays occupied (order takes a slice of the pallet),
    # so every restock visit is skipped, yet the chain keeps ticking
    initial = [((0, 1, 0), "A", 10, date(2024, 5, 1))]
    orders = [("O1", "T", [("A", 2)])]
    cfg = trace_cfg()
    completions, _, _, engine = engine_run(layout, items, initial, "random",
                                           None, orders, "area", cfg, 1, START)
    assert completions == [55.0]  # 30 walk + 25 handling, no wait
    rps = [ev for ev in engine.trace if isinstance(ev.kind, Replenish)]
    assert len(rps) == 1 and rps[0].time == 100.0  # fired once, then stopped


def test_restock_mfg_date_follows_simulation_day():
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1),
                          slot(0, 1, 1, 100.0, 200.0, seq=2)]
    items = [make_item("A", qpp=10)]
    initial = [((0, 1, 0), "A", 1, date(2024, 5, 1))]
    orders = [("O1", "T", [("A", 21)])]
    # one restock per day: the pallet placed on day N carries that date
    cfg = trace_cfg()
    cfg.replenish = ReplenishSettings(mode="constant", mu_s=86_400.0)
    completions, _, _, engine = engine_run(layout, items, initial, "random",
                                           None, orders, "area", cfg, 1, START)
    assert completions[0] is not None
    # the finishing pick consumed pallets made on later simulated days
    assert engine.now >= 2 * 86_400.0


def test_item_without_candidate_slots_fails_the_first_visit():
    """Under fixed-zone, items whose home zone has no slots make the first
    visit fail, naming the first such item in catalog order, even though a
    lower-coded item with no stock is eligible."""
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, zone="Z1", seq=1),
                          slot(0, 1, 1, 100.0, 200.0, zone="Z1", seq=2)]
    items = [make_item("A", zone="Z1"), make_item("C", zone="Z9"), make_item("B", zone="Z8")]
    orders = [("O1", "T", [("A", 4)])]
    with pytest.raises(InputDataError, match=r"^home zone 'Z9' of item C has no slots$"):
        engine_run(layout, items, [], "fixed-zone", None, orders, "area", trace_cfg(), 1, START)


LINES = 600


@pytest.fixture(scope="module")
def catalogs(tmp_path_factory):
    """Two demo-scale datasets that differ in the number of items."""
    dirs = []
    for n_items in (25, 100):
        out = tmp_path_factory.mktemp(f"items{n_items}")
        generate_data(str(out), 3, n_items=n_items, n_slots=240, n_lines=LINES, weeks=4)
        dirs.append(str(out))
    return dirs


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_visit_cost_does_not_grow_with_the_catalog(catalogs, monkeypatch, policy):
    """Replenishment reads no stock count per item: over four weeks the
    run's ``total_on_hand`` calls are bounded by its order lines and
    visits, whatever the number of items."""
    counts = Counter()
    replenishing = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name, bool(replenishing)] += 1
            return fn(*args, **kwargs)
        return wrapper

    handle_rp = Replenisher.handle_rp

    def visit(self, sim, event):
        counts["visits"] += 1
        replenishing.append(event)
        try:
            return handle_rp(self, sim, event)
        finally:
            replenishing.pop()

    monkeypatch.setattr(Warehouse, "total_on_hand",
                        counted("total_on_hand", Warehouse.total_on_hand))
    monkeypatch.setattr(Replenisher, "handle_rp", visit)
    for data in catalogs:
        counts.clear()
        run_scenario(ScenarioSpec("s", policy, AllocationRule.HOMOGENEOUS, PickingMode.AREA,
                                  4, 1, SimConfig(), DataPaths.from_dir(data)))
        assert counts["visits"] > 0
        assert counts["total_on_hand", True] <= counts["visits"]
        calls = counts["total_on_hand", False] + counts["total_on_hand", True]
        assert calls <= 2 * (LINES + counts["visits"])
