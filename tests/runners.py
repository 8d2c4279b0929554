"""Drive the real engine from the same primitive inputs the oracle takes.

``engine_run`` builds a world's warehouse and storage policy, places its
initial pallets at their given slots and hands the week to
``picksim.run_week``, the wiring every simulated week of the program
goes through, so the oracle checks that code path and no copy of it.
"""

from __future__ import annotations

from datetime import date, datetime, time

from picksim import (
    Order,
    OrderLine,
    PickingMode,
    PolicyKind,
    StoragePolicy,
    Warehouse,
    index_layout,
    run_week,
)


def engine_run(layout, items, initial, policy_kind, slot_map, orders, mode,
               cfg, seed, start: date, audit: bool = False, trace: list | None = None):
    """Run one terminating picking horizon; returns completions in plan
    order, the matching order numbers, the metric totals and the engine.
    With ``audit`` set, stock conservation is checked at every event, and
    every executed event is appended to ``trace``, if given."""
    warehouse = Warehouse(index_layout(layout), items)
    policy = StoragePolicy(PolicyKind(policy_kind), warehouse, cfg.stacker(),
                           slot_map=slot_map)
    for lid, code, qty, mfg in initial:
        warehouse.place(lid, code, qty, mfg)
    built = [
        Order(no, datetime.combine(start, time(9, 0)), truck,
              [OrderLine(code, qty) for code, qty in lines])
        for no, truck, lines in orders
    ]
    session, engine = run_week(warehouse, policy, built, PickingMode(mode), cfg, seed, start,
                               audit, trace)
    order_nos = [entry.order.order_no for entry in session.plan]
    return session.completions, order_nos, session.metrics, engine
