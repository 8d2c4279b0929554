"""Replenishment: interval sampling, product selection, chain scheduling."""

from __future__ import annotations

import logging
import random
from collections import Counter
from datetime import date

import pytest

from conftest import anchors, make_item, slot, trace_cfg
from runners import engine_run
from picksim import (
    AllocationRule,
    DataPaths,
    Engine,
    InputDataError,
    PickingMode,
    PolicyKind,
    Replenish,
    Replenisher,
    ScenarioSpec,
    SimConfig,
    StoragePolicy,
    Warehouse,
    index_layout,
    run_scenario,
)
from picksim import experiment
from picksim.config import ReplenishSettings
from picksim.datagen import generate_data
from picksim.replenishment import ReplenishmentSampler

START = date(2024, 6, 3)


def _sampler(mu=600.0, sigma=0.0, seed=1, t_min=None):
    cfg = SimConfig(replenish=ReplenishSettings(mu_s=mu, sigma_s=sigma, t_min_s=t_min))
    return ReplenishmentSampler.from_config(cfg, seed)


# -- sampler --------------------------------------------------------------


def test_constant_sampler_returns_mu_forever():
    s = _sampler()
    assert [s.next_visit(0.0) for _ in range(5)] == [600.0] * 5


def test_sampled_intervals_match_seeded_gaussian():
    s = _sampler(mu=600.0, sigma=60.0, seed=77)
    rng = random.Random(77)
    expected = [max(rng.gauss(600.0, 60.0), 420.0) for _ in range(50)]
    assert [s.next_visit(0.0) for _ in range(50)] == expected


def test_sampled_intervals_clamp_at_floor():
    s = _sampler(mu=10.0, sigma=500.0, seed=3, t_min=9.5)
    draws = [s.next_visit(0.0) for _ in range(200)]
    assert min(draws) == 9.5  # huge sigma: the floor certainly triggers
    assert all(d >= 9.5 for d in draws)


def test_same_seed_same_stream():
    a = _sampler(sigma=60.0, seed=5)
    b = _sampler(sigma=60.0, seed=5)
    assert [a.next_visit(0.0) for _ in range(10)] == [b.next_visit(0.0) for _ in range(10)]


def test_next_visit_adds_the_draw_to_the_time_of_this_one():
    a, b = _sampler(sigma=60.0, seed=5), _sampler(sigma=60.0, seed=5)
    assert [a.next_visit(1000.0) for _ in range(10)] == [
        1000.0 + b.next_visit(0.0) for _ in range(10)]


def test_settings_changed_with_replace_draw_with_the_floor_of_their_own_mean():
    """The floor of mu_s 600 and sigma_s 60, 420 s, belongs to that mean;
    at mu_s 50 it is 1 s."""
    settings = ReplenishSettings(sigma_s=60.0)._replace(mu_s=50.0)
    s = ReplenishmentSampler.from_config(SimConfig(replenish=settings), 11)
    assert s.t_min_s == 1.0
    draws = [s.next_visit(0.0) for _ in range(1000)]
    assert min(draws) >= 1.0 and sum(d < 420.0 for d in draws) > 0


@pytest.mark.parametrize("mu, t_min", [(0.0001, None), (0.5, 0.25), (1e-300, 1e-9)])
def test_every_interval_is_at_least_1_s(mu, t_min):
    """Whatever mu_s, and whatever explicit t_min_s below 1 s, every draw is
    at least 1 s, so simulated time moves on at each visit."""
    constant = _sampler(mu=mu, t_min=t_min)
    assert constant.t_min_s == 1.0
    assert [constant.next_visit(0.0) for _ in range(3)] == [1.0] * 3
    assert min(_sampler(mu=mu, sigma=0.1, t_min=t_min).next_visit(0.0)
               for _ in range(100)) == 1.0


def test_a_visit_past_every_finite_time_is_refused():
    """A sigma so wide that a draw overflows to infinity, or a mean so large
    that the next visit does, is refused naming both fields."""
    message = r"replenish\.mu_s or replenish\.sigma_s is too large$"
    wide = _sampler(sigma=1e308, seed=9)
    with pytest.raises(InputDataError, match=message):
        for _ in range(1000):  # a draw of more than 1.8 sigma overflows
            wide.next_visit(0.0)
    with pytest.raises(InputDataError, match=r"^the replenishment visit after t=1e\+308 s "
                                             r"would fall at t=inf: " + message):
        _sampler(mu=1e308).next_visit(1e308)


@pytest.mark.parametrize("field, value", [("mu_s", "x"), ("mu_s", None),
                                          ("mu_s", float("nan")), ("sigma_s", "x")])
def test_an_unvalidated_non_numeric_mean_or_sigma_leaves_no_floor(field, value):
    settings = ReplenishSettings(**{field: value})
    with pytest.raises(InputDataError,
                       match=r"^replenish\.mu_s and replenish\.sigma_s must be numbers$"):
        ReplenishmentSampler.from_config(SimConfig(replenish=settings), 1)


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
    trace = []
    _, _, _, engine = engine_run(layout, items, initial, "random", None,
                                 orders, "area", trace_cfg(), 1, START, trace=trace)
    rp_times = [ev.time for ev in trace
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
    trace = []
    completions, _, metrics, _ = engine_run(layout, items, [], "random",
                                            None, orders, "area",
                                            trace_cfg(), 1, START, trace=trace)
    # the picker walks 13 s to B's slot (0, 1, 0) and waits there.
    # t=100: tie (0, 'A') < (0, 'B') -> A restocked first (uselessly),
    # B lands on the t=200 visit and the pick finishes at 200 + 10 to the
    # drop-off + 25.  A B-first tiebreak would have finished at 135 instead.
    assert completions == [235.0]
    assert metrics.wait_s == 187.0  # 13..100 and 100..200
    rp_times = [ev.time for ev in trace
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
    trace = []
    completions, _, _, _ = engine_run(layout, items, initial, "random",
                                      None, orders, "area", cfg, 1, START, trace=trace)
    assert completions == [48.0]  # 13 + 10 walk + 25 handling, no wait
    rps = [ev for ev in trace if isinstance(ev.kind, Replenish)]
    assert len(rps) == 1 and rps[0].time == 100.0  # fired once, then stopped


def test_skipped_visit_is_an_info_record_of_the_replenishment_logger(caplog):
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1)]
    initial = [((0, 1, 0), "A", 10, date(2024, 5, 1))]
    with caplog.at_level(logging.INFO, logger="picksim.replenishment"):
        completions, _, _, _ = engine_run(
            layout, [make_item("A", qpp=10)], initial, "random", None,
            [(f"O{i}", "T", [("A", 1)]) for i in range(6)], "area", trace_cfg(), 1, START)
    # orders start every 48 s, so the visits at 100 and 200 come while the
    # picker still has one to start, and find the only slot full
    assert completions == [48.0, 96.0, 144.0, 192.0, 240.0, 288.0]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("picksim.replenishment", logging.INFO,
         f"replenishment at t={t} skipped: no product has a vacant slot")
        for t in (100.0, 200.0)]


def test_restock_mfg_date_follows_simulation_day():
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, seq=1),
                          slot(0, 1, 1, 100.0, 200.0, seq=2)]
    items = [make_item("A", qpp=10)]
    initial = [((0, 1, 0), "A", 1, date(2024, 5, 1))]
    orders = [("O1", "T", [("A", 21)])]
    # one restock per day: the pallet placed on day N carries that date
    cfg = trace_cfg(replenish=ReplenishSettings(mu_s=86_400.0))
    completions, _, _, engine = engine_run(layout, items, initial, "random",
                                           None, orders, "area", cfg, 1, START)
    assert completions[0] is not None
    # the finishing pick consumed pallets made on later simulated days
    assert engine.now >= 2 * 86_400.0


_MAX_EVENTS = 10_000


class _Bounded(Engine):
    """An engine whose observer stops the week at its event past
    ``_MAX_EVENTS``, after calling the observer ``run_week`` gave it, so a
    run whose visits do not move the clock fails instead of running on."""

    def __init__(self, picker, replenisher, observe=None):
        executed = 0

        def bounded(event):
            nonlocal executed
            if observe is not None:
                observe(event)
            executed += 1
            if executed > _MAX_EVENTS:
                raise AssertionError(f"more than {_MAX_EVENTS} events by t={event.time} s")

        super().__init__(picker, replenisher, bounded)


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_a_week_at_a_sub_second_mean_visits_at_least_1_s_apart(monkeypatch, sigma):
    """At mu_s 0.0001 every interval is the 1 s floor: the picker reaches
    its short line at 13 s, resumes after the visit there and is done at
    48 s; it sees 14 visits, and the week ends after 17 events."""
    layout, items = _two_item_world()
    initial = [((0, 1, 0), "A", 6, date(2024, 5, 1)),
               ((0, 1, 1), "B", 2, date(2024, 5, 1))]
    cfg = trace_cfg(replenish=ReplenishSettings(mu_s=0.0001, sigma_s=sigma))
    monkeypatch.setattr(experiment, "Engine", _Bounded)
    trace = []
    completions, _, _, _ = engine_run(layout, items, initial, "random", None,
                                      [("O1", "T", [("A", 16)])], "area", cfg, 1, START,
                                      trace=trace)
    visits = [ev.time for ev in trace if isinstance(ev.kind, Replenish)]
    assert completions == [48.0] and len(trace) == 17
    assert visits == [float(t) for t in range(1, 15)]


def test_item_without_candidate_slots_is_refused_when_the_policy_is_built():
    """Under fixed-zone, items whose home zone has no slots make building
    the policy fail, before any visit, naming the first such item in
    catalog order."""
    layout = anchors() + [slot(0, 1, 0, 100.0, 100.0, zone="Z1", seq=1),
                          slot(0, 1, 1, 100.0, 200.0, zone="Z1", seq=2)]
    items = [make_item("A", zone="Z1"), make_item("C", zone="Z9"), make_item("B", zone="Z8")]
    warehouse = Warehouse(index_layout(layout), items)
    with pytest.raises(InputDataError, match=r"^home zone 'Z9' of item C has no slots$"):
        StoragePolicy(PolicyKind.FIXED_ZONE, warehouse, trace_cfg().stacker())


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
