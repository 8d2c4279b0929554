"""Discrete-event kernel: event list, simulation clock, dispatch loop.

The kernel keeps a time-ordered list of pending events and executes them
one at a time: pop the earliest, advance the clock to its timestamp,
hand it to the handler registered for its kind, and insert whatever new
events the handler returns.  Two events with the same timestamp execute
in insertion order (each scheduled event receives a monotonically
increasing sequence number, and the list is ordered by ``(time, seq)``),
so ties never reorder.

The kernel itself is payload-agnostic: all warehouse semantics live in
the handlers.  The three event kinds used by the simulator are defined
here as plain payload dataclasses.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import SchedulePastError, SimulationAbort
from .warehouse import LocationId, _write_csv


@dataclass(frozen=True)
class StartPickOrder:
    """Begin picking the order at this position of the pick plan."""

    order: int


@dataclass(frozen=True)
class PartialPick:
    """Resume a stalled order at the route stop that ran out of stock."""

    order: int
    line: int
    location: LocationId


@dataclass(frozen=True)
class Replenish:
    """Periodic restocking visit by the replenishment operator."""


EventKind = Union[StartPickOrder, PartialPick, Replenish]


@dataclass(frozen=True)
class Event:
    time: float
    seq: int
    kind: EventKind


Handler = Callable[["Engine", Event], "list[tuple[float, EventKind]]"]


class Engine:
    """Event executor with a monotone clock starting at zero."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, EventKind]] = []
        self._seq = 0
        self._handlers: dict[type, Handler] = {}
        self.trace: list[Event] = []

    def register(self, kind: type, handler: Handler) -> None:
        self._handlers[kind] = handler

    def schedule(self, time: float, kind: EventKind) -> Event:
        if time < self.now:
            raise SchedulePastError(
                f"cannot schedule {type(kind).__name__} at t={time!r}: "
                f"clock is already at t={self.now!r}"
            )
        event = Event(time, self._seq, kind)
        heapq.heappush(self._heap, (time, self._seq, kind))
        self._seq += 1
        return event

    def next_time_of(self, kind: type) -> float | None:
        """Earliest pending timestamp of the given event kind, if any."""
        times = [t for t, _, k in self._heap if isinstance(k, kind)]
        return min(times) if times else None

    def run(self, horizon: float = math.inf) -> list[Event]:
        """Execute events in (time, seq) order until the list is empty or
        the next event lies beyond the horizon.  Returns the executed trace."""
        while self._heap:
            time, seq, kind = self._heap[0]
            if time > horizon:
                break
            heapq.heappop(self._heap)
            self.now = time
            event = Event(time, seq, kind)
            self.trace.append(event)
            try:
                handler = self._handlers[type(kind)]
            except KeyError:
                raise SimulationAbort(
                    f"no handler registered for event kind {type(kind).__name__}"
                ) from None
            for new_time, new_kind in handler(self, event):
                self.schedule(new_time, new_kind)
        return self.trace


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
