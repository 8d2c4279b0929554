"""Scenario runner: weekly terminating runs and their aggregation.

A scenario fixes the storage policy, the slot-allocation rule, the
picking mode, the week count and the master seed.  Every week is an
independent terminating run, set up in two places.  The scenario loop
rebuilds the warehouse from the same initial inventory (placed under the
active policy so containment rules hold from the start), runs the week,
writes its trace, if asked for, and scores it.  ``run_week``, which the
oracle tests drive too, builds everything the week draws from on the
stocked warehouse: the plan of its orders, the picking session, the
replenishment sampler (with its interval floor) and the event engine,
which runs until every order is complete.  It alone decides what
observes the week's events: a trace list, the conservation audit, both
or nothing, so an untraced week keeps no event it has run.  A week has
no time ceiling: it ends at its natural terminating event, the last
order's completion, or raises ``InfeasibleRunError`` at a stall that can
never end (the README's "Why every week ends" says why one of the two
always comes).
Every leg, the picker's and put-away's alike, rides one equipment, the
stacker (``SimConfig.stacker``).
The weekly metric is the total picking time, i.e. the completion time
of the last order; orders chain back to back from time zero, so this
equals the sum of per-order durations including any replenishment
waits.

Per-week randomness derives from (master seed, scenario name, week), so
runs are reproducible bit for bit and independent of execution order.
The hash is SHA-256 from its own lean module, not ``hashlib``, whose
import loads OpenSSL.

``compare_scenarios`` loads and validates a dataset once for the
scenarios that share it (the same data directory and week count); they
plan the same order records, which a week only reads.

``run_scenario`` and ``compare_scenarios`` pause CPython's cyclic garbage
collector from the first CSV load to the end of the last week: otherwise
its full passes rescan the loaded dataset and the week's plan again and
again.  Pausing is safe because a run makes no reference cycles, so
reference counting alone frees all it drops: links run one way, and the
storage policy reads the warehouse's change log rather than being
called by it (see ``storage.py``).  The suite checks that a run leaves
nothing for the collector.  On return and on raise the collector is left
as the caller had it: enabled again only if it was enabled before.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from datetime import date
from pathlib import Path
from typing import NamedTuple

from .allocation import (
    AllocationRule,
    SlotMap,
    allocate_slots,
    assign_physical_slots,
)
from .config import SimConfig
from .errors import InfeasibleRunError, InputDataError, _cut
from .events import Engine, Event, Replenish, StartPickOrder, write_trace_csv
from .picking import (
    Order,
    PickingMode,
    PickingSession,
    load_orders,
    prepare_orders,
)
from .replenishment import Replenisher, ReplenishmentSampler
from .stats import PairedTest, StatsSummary, gap, paired_test, summarize, total
from .storage import PolicyKind, StoragePolicy, place_initial
from .warehouse import (
    ENTRANCE_ID,
    Layout,
    ProcessTotals,
    Warehouse,
    _write_csv,
    load_inventory,
    load_items,
    load_layout,
)

# random.py takes SHA-512 from its lean module the same way
try:
    from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256 as _sha256


class DataPaths(NamedTuple):
    layout: str
    items: str
    inventory: str
    orders: str

    @classmethod
    def from_dir(cls, directory: str) -> "DataPaths":
        d = Path(directory)
        return cls(
            layout=str(d / "layout.csv"),
            items=str(d / "items.csv"),
            inventory=str(d / "initial_inventory.csv"),
            orders=str(d / "orders.csv"),
        )


class ScenarioSpec(NamedTuple):
    name: str
    policy: PolicyKind
    allocation: AllocationRule
    picking: PickingMode
    weeks: int
    seed: int
    config: SimConfig
    data: DataPaths


class WeekOutcome(NamedTuple):
    week: int
    metric: float
    totals: ProcessTotals


class RunResult(NamedTuple):
    scenario: str
    unit: str
    weeks: list[WeekOutcome]

    @property
    def weekly_metrics(self) -> list[float]:
        return [w.metric for w in self.weeks]

    @property
    def total(self) -> float:
        return total(self.weekly_metrics)


def derive_seed(master: int, scenario: str, week: int) -> int:
    """Stable per-run seed from (master seed, scenario name, week)."""
    digest = _sha256(f"{master}|{scenario}|{week}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _spanned_weeks(orders: list[Order]) -> list[tuple[list[Order], date | None]]:
    """Each calendar week from the first local order date to the last: its
    orders, in file order, and its first local date (``None`` for a week
    without orders).  Each order's date is read once, in its own offset."""
    dates = [order.order_datetime.date() for order in orders]
    if not dates:
        return []
    start = min(dates)
    week_of = {day: (day - start).days // 7 for day in set(dates)}
    buckets: list[list[Order]] = [[] for _ in range(max(week_of.values()) + 1)]
    for order, day in zip(orders, dates):
        buckets[week_of[day]].append(order)
    return [(bucket, min((day for day, w in week_of.items() if w == week), default=None))
            for week, bucket in enumerate(buckets)]


def demand_per_week(orders: list[Order], weeks: int) -> dict[str, float]:
    """Average picks (order lines) per product per week over the horizon."""
    counts = Counter(line.item for order in orders for line in order.lines)
    return {code: n / weeks for code, n in counts.items()}


def build_slot_map(spec: ScenarioSpec, layout: Layout, avg_picks: dict[str, float],
                   item_codes: list[str]) -> SlotMap:
    """Allocate the whole storage pool and pin it to concrete slots."""
    demand = {code: avg_picks.get(code, 0.0) for code in item_codes}
    slots = list(layout.storage.values())
    counts = allocate_slots(demand, len(slots), spec.allocation)
    return assign_physical_slots(counts, slots, demand, layout.anchors[ENTRANCE_ID],
                                 spec.config.stacker())


def run_scenario(spec: ScenarioSpec, audit: bool = False,
                 trace_dir: str | None = None) -> RunResult:
    """Run every week of a scenario; raises ``InfeasibleRunError`` on a week
    that can never finish, and raises ``InputDataError`` before any run if
    the layout has no storage slot, a week has no orders or an initial
    pallet holds an item missing from the catalog or more pieces than its
    item's ``qty_per_pallet``, names a location that is not a storage slot
    of the layout, or names the slot of an earlier pallet.  Under fixed-zone storage, so does an item whose
    home zone has no slot in the layout; fixed and random storage never
    read ``home_zone``.

    With ``trace_dir`` set, the executed events of week N are held until
    the week ends and then written to
    ``<trace_dir>/trace_<scenario>_week<N>.csv``; without it a week holds
    none.  With ``audit`` set, conservation is verified at every event.

    The cyclic garbage collector is paused for the run and left as the
    caller had it on return or raise (see the module docstring).
    """
    with _gc_paused():
        return _run_loaded(spec, _load_dataset(spec.data, spec.weeks), audit, trace_dir)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then leave it as the caller had it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_dataset(data: DataPaths, weeks: int):
    """The validated dataset of a run of ``weeks`` weeks: layout, items,
    initial pallets, the orders of each week and the average picks per
    item and week.  Scenarios of the same ``(data, weeks)`` share it."""
    layout = load_layout(data.layout)
    items = load_items(data.items)
    initial = load_inventory(data.inventory)
    item_index = {i.code: i for i in items}
    if not layout.storage:
        raise InputDataError(f"{data.layout}: the layout holds no storage slot")
    named = set()
    for row in initial:
        item = item_index.get(row.item)
        if item is None:
            raise InputDataError(f"{data.inventory}: unknown item {_cut(row.item)}")
        if row.qty > item.qty_per_pallet:
            raise InputDataError(
                f"{data.inventory}: pallet of {_cut(row.item)} must hold "
                f"1..{item.qty_per_pallet} pieces, got {row.qty}"
            )
        if row.location not in layout.storage:
            raise InputDataError(f"{data.inventory}: pallet of {_cut(row.item)} on "
                                 f"{_cut(str(row.location))}, not a storage slot of {data.layout}")
        if row.location in named:
            raise InputDataError(f"{data.inventory}: two pallets on slot {_cut(str(row.location))}")
        named.add(row.location)
    spanned = _spanned_weeks(load_orders(data.orders, item_index))
    # the weeks up to the orders' span only: a week past it has no orders
    run_weeks = spanned[:max(weeks, 0)]
    empty = next((w for w, (bucket, _) in enumerate(run_weeks, start=1) if not bucket),
                 len(spanned) + 1 if weeks > len(spanned) else None)
    if empty is not None:
        raise InputDataError(
            f"week {empty} has no orders: {data.orders} spans {len(spanned)} week(s)"
        )
    avg_picks = demand_per_week([o for bucket, _ in run_weeks for o in bucket], weeks)
    return layout, items, initial, run_weeks, avg_picks


def _run_loaded(spec: ScenarioSpec, dataset, audit: bool, trace_dir: str | None) -> RunResult:
    layout, items, initial, run_weeks, avg_picks = dataset
    cfg = spec.config
    if spec.policy is PolicyKind.FIXED_ZONE:
        for item in items:
            if item.home_zone not in layout.zones:
                raise InputDataError(f"{spec.data.items}: home zone {_cut(item.home_zone)!r} "
                                     f"of item {_cut(item.code)} has no slot in {spec.data.layout}")
    slot_map = None
    if spec.policy is PolicyKind.FIXED:
        slot_map = build_slot_map(spec, layout, avg_picks, [i.code for i in items])

    weeks = []
    for week_no, (week_orders, first_date) in enumerate(run_weeks, start=1):
        warehouse = Warehouse(layout, items)
        policy = StoragePolicy(spec.policy, warehouse, cfg.stacker(), slot_map=slot_map)
        place_initial(policy, initial, avg_picks)
        trace = None if trace_dir is None else []
        try:
            session, _ = run_week(
                warehouse, policy, week_orders, spec.picking, cfg,
                derive_seed(spec.seed, spec.name, week_no), first_date, audit, trace)
        except InfeasibleRunError as exc:  # a stuck week; it writes no trace
            raise InfeasibleRunError(f"scenario {spec.name} week {week_no}: {exc}") from None
        if trace is not None:
            write_trace_csv(trace, str(Path(trace_dir) / f"trace_{spec.name}_week{week_no}.csv"))
        weeks.append(WeekOutcome(week_no, session.completions[-1] * cfg.metric_factor(),
                                 session.metrics))
    return RunResult(spec.name, cfg.metric_unit, weeks)


def run_week(warehouse: Warehouse, policy: StoragePolicy, orders: list[Order],
             picking: PickingMode, cfg: SimConfig, seed: int, start_date: date, audit: bool = False,
             trace: list[Event] | None = None) -> tuple[PickingSession, Engine]:
    """Plan ``orders`` on the stocked ``warehouse`` and run the week until
    its last order completes, seeding the replenishment sampler with
    ``seed`` and dating its pallets from ``start_date``.  Returns the
    picking session (plan, completions, totals) and the engine (clock).
    A week without orders raises ``InputDataError``, and a week that gets
    stuck, with the picker waiting for an item no visit can restock,
    raises ``InfeasibleRunError``.

    This is the one place that decides what observes a week: every
    executed event is appended to ``trace``, if given, and with ``audit``
    set the warehouse's conservation is verified at every event, so each
    handled event's state is checked at the next one (the closing visit
    checks the last).  Neither is kept otherwise: an untraced week holds
    no event it has run.  The observer refers to the warehouse and the
    list, never to the engine, so the week makes no reference cycle."""
    if not orders:
        raise InputDataError("a week needs at least one order")
    plan = prepare_orders(orders, picking, warehouse, policy, cfg)
    session = PickingSession(warehouse, policy, cfg, plan, ProcessTotals())
    sampler = ReplenishmentSampler.from_config(cfg, seed)
    replenisher = Replenisher(policy, cfg, sampler, session.metrics, start_date)
    observe = record = None if trace is None else trace.append
    if audit:
        def observe(event: Event) -> None:
            if record is not None:
                record(event)
            warehouse.verify_conservation()
    engine = Engine(session, replenisher, observe)
    engine.schedule(0.0, StartPickOrder(0))
    engine.schedule(sampler.next_visit(0.0), Replenish())
    engine.run()
    return session, engine


# -- comparison ----------------------------------------------------------


class ScenarioSummary(NamedTuple):
    scenario: str
    stats: StatsSummary
    total: float
    gap_pct: float


class Comparison(NamedTuple):
    results: list[RunResult]
    summaries: list[ScenarioSummary]
    paired: PairedTest


def summarize_results(series: list[tuple[str, list[float]]]) -> list[ScenarioSummary]:
    """Mean/CI/total per ``(name, weekly values)`` pair, plus the gap of
    each total against the first one.  A figure out of float range raises
    ``InputDataError`` naming its series."""
    if not series:
        raise InputDataError("nothing to summarize")
    summaries = []
    for name, values in series:
        try:
            stats, scenario_total = summarize(values), total(values)
            baseline = summaries[0].total if summaries else scenario_total
            summaries.append(ScenarioSummary(name, stats, scenario_total,
                                             gap(baseline, scenario_total)))
        except InputDataError as exc:
            raise InputDataError(f"{name}: {exc}") from None
    return summaries


def compare_scenarios(base: ScenarioSpec, other: ScenarioSpec,
                      audit: bool = False) -> Comparison:
    """Run both scenarios and pair their weekly metrics.  A scenario of
    fewer than 2 weeks raises ``InputDataError`` before any file is read:
    the paired t-test needs at least two pairs.

    Scenarios of the same data directory and week count load and validate
    it once and plan the same order records, which a run leaves as they
    were.  The garbage collector stays paused from the first load to the
    end of the last week, as in ``run_scenario``."""
    for spec in (base, other):
        if spec.weeks < 2:
            raise InputDataError(f"scenario {spec.name}: a comparison needs at least 2 "
                                 f"weeks for its paired t-test, got {spec.weeks}")
    with _gc_paused():
        dataset = _load_dataset(base.data, base.weeks)
        res_a = _run_loaded(base, dataset, audit, None)
        if (other.data, other.weeks) != (base.data, base.weeks):
            dataset = _load_dataset(other.data, other.weeks)
        res_b = _run_loaded(other, dataset, audit, None)
    summaries = summarize_results([(r.scenario, r.weekly_metrics) for r in (res_a, res_b)])
    paired = paired_test(res_a.weekly_metrics, res_b.weekly_metrics)
    return Comparison([res_a, res_b], summaries, paired)


# -- serialization -------------------------------------------------------

RESULTS_HEADER = ["scenario", "week", "metric", "walk_s", "handle_s", "wait_s",
                  "put_travel_s", "put_handle_s", "turns"]
SUMMARY_HEADER = ["scenario", "mean", "ci_low", "ci_high", "total", "gap_pct"]
PAIRED_HEADER = ["statistic", "df", "p_value"]


def write_results_csv(results: list[RunResult], path: str) -> None:
    _write_csv(path, RESULTS_HEADER, (
        [res.scenario, wk.week, repr(wk.metric), repr(wk.totals.walk_s),
         repr(wk.totals.handle_s), repr(wk.totals.wait_s), repr(wk.totals.put_travel_s),
         repr(wk.totals.put_handle_s), wk.totals.turns]
        for res in results for wk in res.weeks
    ))


def summary_rows(summaries: list[ScenarioSummary]) -> list[list[str]]:
    return [[s.scenario, f"{s.stats.mean:.2f}", f"{s.stats.ci_low:.2f}",
             f"{s.stats.ci_high:.2f}", f"{s.total:.2f}", f"{s.gap_pct:.2f}"] for s in summaries]


def write_summary_csv(summaries: list[ScenarioSummary], path: str) -> None:
    _write_csv(path, SUMMARY_HEADER, summary_rows(summaries))


def write_paired_csv(paired: PairedTest, path: str) -> None:
    _write_csv(path, PAIRED_HEADER,
               [[f"{paired.statistic:.4f}", paired.df, f"{paired.p_value:.4f}"]])
