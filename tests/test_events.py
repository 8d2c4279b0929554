"""Two-slot event list: ordering, tie-breaks, chain end, horizon, trace serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from picksim import (
    Engine,
    PartialPick,
    Replenish,
    SchedulePastError,
    StartPickOrder,
)
from picksim.events import write_trace_csv

LOC = (0, 1, 0)


class Picker:
    """Picker whose handlers record what they see and return scripted successors.

    The n-th handled event returns ``script[n]``; once the script is used
    up the plan is done.
    """

    def __init__(self, script=()):
        self.script = list(script)
        self.seen = []

    def handle_spo(self, sim, event):
        n = len(self.seen)
        self.seen.append((sim.now, event.kind))
        return self.script[n] if n < len(self.script) else None

    handle_pp = handle_spo


class Visits:
    """Replenisher that records each handled visit and returns the next one ``gap`` later."""

    def __init__(self, gap):
        self.gap = gap
        self.seen = []

    def handle_rp(self, sim, event):
        self.seen.append(sim.now)
        return event.time + self.gap


def _executed(eng):
    return [(ev.time, ev.seq, type(ev.kind).__name__) for ev in eng.trace]


def test_events_run_in_time_order():
    picker = Picker([(5.0, StartPickOrder(1)), (9.0, PartialPick(1, 0, LOC))])
    visits = Visits(3.0)
    eng = Engine(picker, visits)
    eng.schedule(0.0, StartPickOrder(0))
    eng.schedule(3.0, Replenish())
    eng.run()
    assert _executed(eng) == [
        (0.0, 0, "StartPickOrder"),
        (3.0, 1, "Replenish"),
        (5.0, 2, "StartPickOrder"),
        (6.0, 3, "Replenish"),
        (9.0, 4, "PartialPick"),   # ties with the visit at 9 and was scheduled first
        (9.0, 5, "Replenish"),     # first visit after the picker is done: not handled
    ]
    assert visits.seen == [3.0, 6.0]
    assert eng.now == 9.0


def test_same_time_ties_run_in_schedule_order():
    eng = Engine(Picker(), Visits(1.0))
    eng.schedule(7.0, StartPickOrder(0))
    eng.schedule(7.0, Replenish())
    eng.run()
    assert _executed(eng) == [(7.0, 0, "StartPickOrder"), (7.0, 1, "Replenish")]

    eng = Engine(Picker(), Visits(1.0))
    eng.schedule(7.0, Replenish())
    eng.schedule(7.0, StartPickOrder(0))
    eng.run()
    # the picker is still working at the first visit, so that visit is handled
    assert _executed(eng) == [(7.0, 0, "Replenish"), (7.0, 1, "StartPickOrder"),
                              (8.0, 2, "Replenish")]


def test_resume_at_the_next_visit_runs_after_that_visit():
    """A picker that waits for the pending visit is scheduled after it, so
    the visit runs first; the next visit then closes the week."""

    class Waiting(Picker):
        def handle_spo(self, sim, event):
            super().handle_spo(sim, event)
            if isinstance(event.kind, StartPickOrder):
                return (sim.next_visit.time, PartialPick(0, 0, LOC))
            return None

        handle_pp = handle_spo

    checks = []
    visits = Visits(4.0)
    eng = Engine(Waiting(), visits, check=lambda: checks.append(eng.now))
    eng.schedule(0.0, StartPickOrder(0))
    eng.schedule(4.0, Replenish())
    eng.run()
    assert _executed(eng) == [
        (0.0, 0, "StartPickOrder"),
        (4.0, 1, "Replenish"),
        (4.0, 2, "PartialPick"),
        (8.0, 3, "Replenish"),
    ]
    assert visits.seen == [4.0]
    assert checks == [0.0, 4.0, 4.0]  # after every handled event, not the closing visit


def test_handler_chaining_and_clock():
    picker = Picker([(10.0 * (i + 1), StartPickOrder(i + 1)) for i in range(3)])
    eng = Engine(picker, Visits(1.0))
    eng.schedule(0.0, StartPickOrder(0))
    eng.run()
    assert [(now, kind.order) for now, kind in picker.seen] == \
        [(0.0, 0), (10.0, 1), (20.0, 2), (30.0, 3)]
    assert eng.now == 30.0


def test_schedule_in_past_aborts():
    eng = Engine(Picker([(10.0, StartPickOrder(1))]), Visits(-1.0))
    eng.schedule(0.0, StartPickOrder(0))
    eng.schedule(5.0, Replenish())
    with pytest.raises(SchedulePastError, match="Replenish at t=4.0"):
        eng.run()


def test_schedule_at_now_is_allowed():
    picker = Picker([(2.0, StartPickOrder(1))])
    eng = Engine(picker, Visits(1.0))
    eng.schedule(2.0, StartPickOrder(0))
    eng.run()
    assert [(now, kind.order) for now, kind in picker.seen] == [(2.0, 0), (2.0, 1)]


def test_horizon_stops_before_late_events():
    times = [0.0, 4.0, 5.0, 5.5, 9.0]
    picker = Picker([(t, StartPickOrder(i + 1)) for i, t in enumerate(times[1:])])
    eng = Engine(picker, Visits(6.0))
    eng.schedule(times[0], StartPickOrder(0))
    eng.schedule(6.0, Replenish())
    eng.run(horizon=5.0)
    assert [t for t, _, _ in _executed(eng)] == [0.0, 4.0, 5.0]
    assert eng.now == 5.0
    assert (eng.next_pick.time, eng.next_visit.time) == (5.5, 6.0)
    eng.run()
    assert [t for t, _, _ in _executed(eng)] == [0.0, 4.0, 5.0, 5.5, 6.0, 9.0, 12.0]


def test_trace_csv_payloads(tmp_path):
    eng = Engine(Picker([(1.5, PartialPick(3, 2, (1, 2, 3)))]), Visits(1.0))
    eng.schedule(0.0, StartPickOrder(3))
    eng.schedule(2.0, Replenish())
    eng.run()
    out = tmp_path / "trace.csv"
    write_trace_csv(eng.trace, str(out))
    assert out.read_text() == (
        "time,seq,kind,payload\n"
        "0.0,0,StartPickOrder,order=3\n"
        "1.5,2,PartialPick,order=3;line=2;loc=1-2-3\n"
        "2.0,1,Replenish,\n"
    )


@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), max_size=20),
       st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
       st.floats(min_value=10.0, max_value=1e3, allow_nan=False))
def test_pop_order_is_sorted_by_time_then_seq(gaps, first_visit, gap):
    script, t = [], 0.0
    for i, g in enumerate(gaps):
        t += g
        script.append((t, StartPickOrder(i + 1)))
    visits = Visits(gap)
    eng = Engine(Picker(script), visits)
    eng.schedule(0.0, StartPickOrder(0))
    eng.schedule(first_visit, Replenish())
    eng.run()
    executed = [(ev.time, ev.seq) for ev in eng.trace]
    assert executed == sorted(executed)
    assert sorted(s for _, s in executed) == list(range(len(executed)))
    picks = [ev for ev in eng.trace if isinstance(ev.kind, StartPickOrder)]
    assert len(picks) == len(gaps) + 1
    # the week ends with the first visit after the last pick
    last = eng.trace[-1]
    assert isinstance(last.kind, Replenish) and last.time >= picks[-1].time
    assert len(visits.seen) == len(eng.trace) - len(picks) - 1
