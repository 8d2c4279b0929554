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

Intervals come from a sampler that either returns a constant mean or
draws Normal(mu, sigma) clamped below by a positive floor, so simulated
time always advances.  Each week builds its own sampler, and that is
where an unset floor ``t_min_s`` is derived: three sigma below the mean,
at least 1 s.  So a settings record changed with ``_replace`` has no
stale floor.
"""

from __future__ import annotations

import random
import sys
from datetime import date, timedelta
from typing import NamedTuple

from .config import REPLENISH_SAMPLED, ReplenishSettings, SimConfig, _is_num
from .errors import InputDataError, _logger
from .events import Engine, Event
from .storage import StoragePolicy
from .warehouse import ProcessTotals

SECONDS_PER_DAY = 86_400.0  # of simulated time, from which a restocked pallet is dated


class ReplenishmentSampler(NamedTuple):
    """Inter-replenishment interval source, deterministic under a seed."""

    settings: ReplenishSettings
    t_min_s: float  # the floor of a sampled draw
    rng: random.Random

    @classmethod
    def from_config(cls, cfg: SimConfig, seed: int) -> "ReplenishmentSampler":
        """The sampler of one week, with its floor: ``replenish.t_min_s``
        if set, else derived from ``mu_s`` and ``sigma_s``."""
        r = cfg.replenish
        t_min_s = r.t_min_s
        # with a bad mu_s or sigma_s the floor stays unset and is refused
        if t_min_s is None and _is_num(r.mu_s) and _is_num(r.sigma_s):
            t_min_s = max(1.0, r.mu_s - 3.0 * r.sigma_s)
        if t_min_s is None or t_min_s <= 0:
            raise InputDataError("replenishment interval floor must be positive")
        return cls(r, t_min_s, random.Random(seed))

    def draw(self) -> float:
        r = self.settings
        if r.mode == REPLENISH_SAMPLED:
            return max(self.rng.gauss(r.mu_s, r.sigma_s), self.t_min_s)
        return r.mu_s


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
                                     f"{self.start_date} + {day} days, past {date.max}") from None
        return self._date

    def handle_rp(self, sim: Engine, event: Event) -> float:
        """Restock one pallet; returns the time of the next visit."""
        gap = self.sampler.draw()
        assignment = self.policy.put_away(event.time, self.sim_date)
        if assignment is not None:
            metrics = self.metrics
            metrics.put_travel_s += assignment.travel_s
            metrics.put_handle_s += self._put_handle_s
            metrics.turns += assignment.turns
        elif "logging" in sys.modules:  # before its import, no handler or level could show it
            _logger(__name__).info("replenishment at t=%s skipped: no product has a vacant slot",
                                   event.time)
        return event.time + gap
