"""Event list of one weekly run: two actors with one pending event each.

The picker works the pick plan one order at a time; its pending event
starts the next order (``StartPickOrder``) or resumes a stalled one
(``PartialPick``).  The replenisher's pending event is its next visit
(``Replenish``).  So the event list is two slots, the two-process case
of event scheduling (Law & Kelton, *Simulation Modeling and Analysis*,
ch. 1).  ``Engine.run`` executes the earlier pending event and asks its
actor for the successor.  Each scheduled event gets the next sequence
number and events run in ``(time, seq)`` order, so ties never reorder.
The visit chain ends with the first visit after the picker is done:
that visit is traced but not handled.

``run`` binds the three handlers once, picks the picker's handler by the
exact type of the event kind (``StartPickOrder`` or else ``PartialPick``)
and makes each successor ``Event`` itself, with the same sequence number
and past-time check as ``schedule``, which seeds the first two events.
The hot paths build these NamedTuples with ``tuple.__new__``, which
skips the Python frame of their generated ``__new__``; the tuple is the
same.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Union

from .errors import SchedulePastError
from .warehouse import LocationId, _new, _write_csv


class StartPickOrder(NamedTuple):
    """Begin picking the order at this position of the pick plan."""

    order: int


class PartialPick(NamedTuple):
    """Resume a stalled order at the route stop that ran out of stock."""

    order: int
    line: int
    location: LocationId


class Replenish(NamedTuple):
    """Periodic restocking visit by the replenishment operator."""


EventKind = Union[StartPickOrder, PartialPick, Replenish]


class Event(NamedTuple):
    """A scheduled event; ``seq`` is unique, so events order by ``(time, seq)``."""

    time: float
    seq: int
    kind: EventKind


class Engine:
    """Executor of one week's two actors with a monotone clock starting at zero.

    The picker's handlers ``handle_spo`` and ``handle_pp`` return ``(time,
    kind)``, or ``None`` once the plan is done; the replenisher's
    ``handle_rp`` returns the time of its next visit.  Each takes ``(engine,
    event)``.  ``check``, if given, runs after every handled event.
    ``next_pick`` and ``next_visit`` are the pending events; a visit is
    always pending while the picker works.
    """

    def __init__(self, picker, replenisher, check: Callable[[], None] | None = None) -> None:
        self.now: float = 0.0
        self.trace: list[Event] = []
        self._picker = picker
        self._replenisher = replenisher
        self._check = check
        self._seq = 0
        self.next_pick: Event | None = None
        self.next_visit: Event | None = None

    def schedule(self, time: float, kind: EventKind) -> None:
        """Make ``kind`` at ``time`` the pending event of its actor."""
        if time < self.now:
            raise _past(time, kind, self.now)
        event = Event(time, self._seq, kind)
        self._seq += 1
        if isinstance(kind, Replenish):
            self.next_visit = event
        else:
            self.next_pick = event

    def run(self, horizon: float = math.inf) -> list[Event]:
        """Execute events in (time, seq) order until neither actor has one
        pending or the next lies beyond the horizon.  Returns the executed trace."""
        handle_spo, handle_pp = self._picker.handle_spo, self._picker.handle_pp
        handle_rp = self._replenisher.handle_rp
        check = self._check
        executed = self.trace.append
        visit_kind = Replenish()
        start_kind, event_type, new = StartPickOrder, Event, _new
        while True:
            pick, visit = self.next_pick, self.next_visit
            event = pick if visit is None or (pick is not None and pick < visit) else visit
            if event is None or event.time > horizon:
                break
            now = self.now = event.time
            executed(event)
            if event is pick:
                self.next_pick = None
                kind = event.kind
                successor = (handle_spo if type(kind) is start_kind
                             else handle_pp)(self, event)
                if successor is not None:
                    time, kind = successor
                    if time < now:
                        raise _past(time, kind, now)
                    self.next_pick = new(event_type, (time, self._seq, kind))
                    self._seq += 1
            else:
                self.next_visit = None
                if pick is None:
                    continue  # the picker is done: this visit closes the week
                time = handle_rp(self, event)
                if time < now:
                    raise _past(time, visit_kind, now)
                self.next_visit = new(event_type, (time, self._seq, visit_kind))
                self._seq += 1
            if check is not None:
                check()
        return self.trace


def _past(time: float, kind: EventKind, now: float) -> SchedulePastError:
    return SchedulePastError(f"cannot schedule {type(kind).__name__} at t={time!r}: "
                             f"clock is already at t={now!r}")


def _payload_text(kind: EventKind) -> str:
    if isinstance(kind, StartPickOrder):
        return f"order={kind.order}"
    if isinstance(kind, PartialPick):
        r, layer, s = kind.location
        return f"order={kind.order};line={kind.line};loc={r}-{layer}-{s}"
    return ""


def write_trace_csv(trace: list[Event], path: str) -> None:
    """Serialize an executed trace with columns time,seq,kind,payload."""
    _write_csv(path, ["time", "seq", "kind", "payload"], (
        [repr(ev.time), ev.seq, type(ev.kind).__name__, _payload_text(ev.kind)] for ev in trace
    ))
