"""Drive the real engine from the same primitive inputs the oracle takes."""

from __future__ import annotations

from datetime import date, datetime, time

from picksim import (
    Engine,
    Order,
    OrderLine,
    PickingMode,
    PickingSession,
    PolicyKind,
    ProcessTotals,
    Replenish,
    Replenisher,
    ReplenishmentSampler,
    StartPickOrder,
    StoragePolicy,
    Warehouse,
    prepare_orders,
)


def engine_run(layout, items, initial, policy_kind, slot_map, orders, mode,
               cfg, seed, start: date, horizon: float = 1e10, audit: bool = False):
    """Run one terminating picking horizon; returns completions in plan
    order, the matching order numbers, the metric totals and the engine."""
    warehouse = Warehouse(layout, items, audit=audit)
    for lid, code, qty, mfg in initial:
        warehouse.place(lid, code, qty, mfg, source="initial")
    policy = StoragePolicy(PolicyKind(policy_kind), warehouse, cfg.stacker(),
                           slot_map=slot_map)
    built = [
        Order(no, datetime.combine(start, time(9, 0)), truck,
              [OrderLine(code, qty) for code, qty in lines])
        for no, truck, lines in orders
    ]
    plan = prepare_orders(built, PickingMode(mode), warehouse, policy)
    metrics = ProcessTotals()
    session = PickingSession(warehouse, cfg, plan, metrics)
    sampler = ReplenishmentSampler.from_config(cfg, seed)
    replenisher = Replenisher(policy, cfg, sampler, metrics, start)

    engine = Engine(session, replenisher)
    if plan:
        engine.schedule(0.0, StartPickOrder(0))
    engine.schedule(sampler.draw(), Replenish())
    engine.run(horizon=horizon)
    if audit:
        warehouse.verify_conservation()

    order_nos = [entry.order.order_no for entry in plan]
    return session.completions, order_nos, metrics, engine
