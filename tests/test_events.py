"""Event kernel: ordering, tie-breaks, horizon, trace serialization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from picksim import (
    Engine,
    PartialPick,
    Replenish,
    SchedulePastError,
    SimulationAbort,
    StartPickOrder,
)
from picksim.events import write_trace_csv


def _collector(engine, log):
    def handler(sim, event):
        log.append((event.time, event.seq, event.kind))
        return []
    for kind in (StartPickOrder, PartialPick, Replenish):
        engine.register(kind, handler)
    return log


def test_events_run_in_time_order():
    eng = Engine()
    log = _collector(eng, [])
    eng.schedule(5.0, StartPickOrder(1))
    eng.schedule(1.0, StartPickOrder(2))
    eng.schedule(3.0, StartPickOrder(3))
    eng.run()
    assert [t for t, _, _ in log] == [1.0, 3.0, 5.0]
    assert [k.order for _, _, k in log] == [2, 3, 1]


def test_same_time_ties_run_in_schedule_order():
    eng = Engine()
    log = _collector(eng, [])
    for i in range(5):
        eng.schedule(7.0, StartPickOrder(i))
    eng.run()
    assert [k.order for _, _, k in log] == [0, 1, 2, 3, 4]
    assert [s for _, s, _ in log] == [0, 1, 2, 3, 4]


def test_handler_chaining_and_clock():
    eng = Engine()
    seen = []

    def chain(sim, event):
        seen.append((sim.now, event.kind.order))
        if event.kind.order < 3:
            return [(sim.now + 10.0, StartPickOrder(event.kind.order + 1))]
        return []

    eng.register(StartPickOrder, chain)
    eng.schedule(0.0, StartPickOrder(0))
    eng.run()
    assert seen == [(0.0, 0), (10.0, 1), (20.0, 2), (30.0, 3)]
    assert eng.now == 30.0


def test_schedule_in_past_aborts():
    eng = Engine()

    def bad(sim, event):
        return [(sim.now - 1.0, Replenish())]

    eng.register(Replenish, bad)
    eng.schedule(5.0, Replenish())
    with pytest.raises(SchedulePastError):
        eng.run()


def test_schedule_at_now_is_allowed():
    eng = Engine()
    log = _collector(eng, [])

    def renow(sim, event):
        log.append((event.time, event.seq, event.kind))
        if event.kind.order == 0:
            return [(sim.now, StartPickOrder(1))]
        return []

    eng.register(StartPickOrder, renow)
    eng.schedule(2.0, StartPickOrder(0))
    eng.run()
    assert [(t, k.order) for t, _, k in log] == [(2.0, 0), (2.0, 1)]


def test_horizon_stops_before_late_events():
    eng = Engine()
    log = _collector(eng, [])
    for t in (1.0, 4.0, 5.0, 5.5, 9.0):
        eng.schedule(t, Replenish())
    eng.run(horizon=5.0)
    assert [t for t, _, _ in log] == [1.0, 4.0, 5.0]
    eng.run()  # 5.5 and 9.0 stayed queued
    assert [t for t, _, _ in log] == [1.0, 4.0, 5.0, 5.5, 9.0]


def test_missing_handler_aborts():
    eng = Engine()
    eng.schedule(1.0, Replenish())
    with pytest.raises(SimulationAbort, match="no handler"):
        eng.run()


def test_next_time_of_filters_by_kind():
    eng = Engine()
    eng.schedule(4.0, Replenish())
    eng.schedule(2.0, StartPickOrder(0))
    eng.schedule(6.0, Replenish())
    assert eng.next_time_of(Replenish) == 4.0
    assert eng.next_time_of(StartPickOrder) == 2.0
    assert eng.next_time_of(PartialPick) is None


def test_trace_csv_payloads(tmp_path):
    eng = Engine()
    _collector(eng, [])
    eng.schedule(0.0, StartPickOrder(3))
    eng.schedule(1.5, PartialPick(3, 2, (1, 2, 3)))
    eng.schedule(2.0, Replenish())
    eng.run()
    out = tmp_path / "trace.csv"
    write_trace_csv(eng.trace, str(out))
    assert out.read_text() == (
        "time,seq,kind,payload\n"
        "0.0,0,StartPickOrder,order=3\n"
        "1.5,1,PartialPick,order=3;line=2;loc=1-2-3\n"
        "2.0,2,Replenish,\n"
    )


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40))
def test_pop_order_is_sorted_by_time_then_seq(times):
    eng = Engine()
    log = _collector(eng, [])
    for t in times:
        eng.schedule(t, Replenish())
    eng.run()
    assert [(t, s) for t, s, _ in log] == sorted(
        [(t, s) for t, s, _ in log], key=lambda p: (p[0], p[1]))
    assert len(log) == len(times)
