"""Shelf replenishment: periodic restocking driven by inventory levels.

A replenishment operator visits the storage area at sampled intervals.
Each visit restocks the product with the lowest total on-hand quantity
among those that currently have a vacant candidate slot under the
active storage policy (ties go to the smallest item code), placing one
full pallet manufactured on the current simulation date.  The whole
visit is one storage-policy call, ``StoragePolicy.put_away``: it chooses
the product from a lazy min-heap of on-hand counts, brought up to date
from the warehouse's change log, and places the pallet in that product's
nearest vacant candidate slot, so a visit costs O(log items) amortised
instead of a scan of the catalog.  Only a visit that places a pallet
dates one.  If nothing is eligible the visit is skipped, with an INFO
record on the ``picksim.replenishment`` logger once ``logging`` is
imported (the root logger's default level, WARNING, drops it anyway),
but the next one is always scheduled: a full warehouse is not a
terminal state.  The engine ends the chain at the first visit after the
picker is done.

Every interval is a draw of Normal(mu_s, sigma_s) clamped below by a
floor of at least 1 s, so simulated time always advances and a week's
visits are bounded by its simulated time.  With ``sigma_s`` 0, the
default, every interval is ``max(mu_s, 1)``, or ``t_min_s`` if that is
set higher.  Each week builds its own
sampler, and that is where the floor is derived: ``t_min_s`` if set,
else three sigma below the mean, and at least 1 s either way.  So a
settings record changed with ``_replace`` has no stale floor.  A visit
time that is not finite (a sigma so wide that a draw overflows) is
refused with ``InputDataError``.
"""

from __future__ import annotations

import math
import random
import sys
from datetime import date, timedelta
from typing import NamedTuple

from .config import ReplenishSettings, SimConfig, _is_num
from .errors import InputDataError, _logger
from .events import Engine, Event
from .storage import StoragePolicy
from .warehouse import ProcessTotals

SECONDS_PER_DAY = 86_400.0  # of simulated time, from which a restocked pallet is dated


class ReplenishmentSampler(NamedTuple):
    """Source of replenishment visit times, deterministic under a seed."""

    settings: ReplenishSettings
    t_min_s: float  # the floor of every draw, at least 1 s
    rng: random.Random

    @classmethod
    def from_config(cls, cfg: SimConfig, seed: int) -> "ReplenishmentSampler":
        """The sampler of one week, with its floor: ``replenish.t_min_s``
        if set, else derived from ``mu_s`` and ``sigma_s``, and at least 1 s."""
        r = cfg.replenish
        if not (_is_num(r.mu_s) and _is_num(r.sigma_s)):  # a config that skipped validation
            raise InputDataError("replenish.mu_s and replenish.sigma_s must be numbers")
        floor = r.mu_s - 3.0 * r.sigma_s if r.t_min_s is None else r.t_min_s
        return cls(r, max(1.0, floor), random.Random(seed))

    def next_visit(self, now: float) -> float:
        """The time of the visit after one at ``now`` (0 for the first):
        ``now`` plus one draw, at least the floor."""
        r = self.settings
        time = now + max(self.rng.gauss(r.mu_s, r.sigma_s), self.t_min_s)
        if not math.isfinite(time):
            raise InputDataError(f"the replenishment visit after t={now!r} s would fall at "
                                 f"t={time}: replenish.mu_s or replenish.sigma_s is too large")
        return time


class Replenisher:
    """Event handler for replenishment visits in one weekly run."""

    def __init__(self, policy: StoragePolicy, cfg: SimConfig, sampler: ReplenishmentSampler,
                 metrics: ProcessTotals, start_date: date):
        self.policy = policy
        self.sampler = sampler
        self.metrics = metrics
        self.start_date = start_date
        self._put_handle_s = cfg.BTpa + cfg.PPpa  # the handling of every put-away
        self._day = 0
        self._date = start_date

    def sim_date(self, now: float) -> date:
        day = int(now // SECONDS_PER_DAY)
        if day != self._day:
            self._day = day
            try:
                self._date = self.start_date + timedelta(days=day)
            except OverflowError:
                raise InputDataError(f"a pallet restocked at t={now} s would be dated "
                                     f"past {date.max}") from None
        return self._date

    def handle_rp(self, sim: Engine, event: Event) -> float:
        """Restock one pallet; returns the time of the next visit."""
        assignment = self.policy.put_away(event.time, self.sim_date)
        if assignment is not None:
            metrics = self.metrics
            metrics.put_travel_s += assignment.travel_s
            metrics.put_handle_s += self._put_handle_s
            metrics.turns += assignment.turns
        elif "logging" in sys.modules:  # before its import, no handler or level could show it
            _logger(__name__).info("replenishment at t=%s skipped: no product has a vacant slot",
                                   event.time)
        return self.sampler.next_visit(event.time)
