"""Shelf replenishment: periodic restocking driven by inventory levels.

A replenishment operator visits the storage area at sampled intervals.
Each visit restocks the product with the lowest total on-hand quantity
among those that currently have a vacant candidate slot under the
active storage policy (ties go to the smallest item code), placing one
full pallet manufactured on the current simulation date.  The policy
makes that choice (``StoragePolicy.restock_choice``) from a lazy min-heap
of on-hand counts, brought up to date from the warehouse's change log,
so a visit costs O(log items) amortised instead of a scan of the catalog.
If nothing is eligible the visit is skipped, with an INFO record on the
``picksim.replenishment`` logger once ``logging`` is imported (the root
logger's default level, WARNING, drops it anyway), but the next one is
always scheduled: a full warehouse is not a terminal state.  The engine ends the chain at
the first visit after the picker is done.

Intervals come from a sampler that either returns a constant mean or
draws Normal(mu, sigma) clamped below by a positive floor, so simulated
time always advances.
"""

from __future__ import annotations

import random
import sys
from datetime import date, timedelta
from typing import NamedTuple

from .config import REPLENISH_SAMPLED, ReplenishSettings, SimConfig
from .errors import InputDataError, _logger
from .events import Engine, Event
from .storage import StoragePolicy
from .warehouse import ProcessTotals

SECONDS_PER_DAY = 86_400.0  # of simulated time, from which a restocked pallet is dated


class ReplenishmentSampler(NamedTuple):
    """Inter-replenishment interval source, deterministic under a seed."""

    settings: ReplenishSettings
    rng: random.Random

    @classmethod
    def from_config(cls, cfg: SimConfig, seed: int) -> "ReplenishmentSampler":
        r = cfg.replenish
        if r.t_min_s is None or r.t_min_s <= 0:
            raise InputDataError("replenishment interval floor must be positive")
        return cls(r, random.Random(seed))

    def draw(self) -> float:
        r = self.settings
        if r.mode == REPLENISH_SAMPLED:
            return max(self.rng.gauss(r.mu_s, r.sigma_s), r.t_min_s)
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
            self._date = self.start_date + timedelta(days=day)
        return self._date

    def handle_rp(self, sim: Engine, event: Event) -> float:
        """Restock one pallet; returns the time of the next visit."""
        gap = self.sampler.draw()
        code = self.policy.restock_choice()
        if code is not None:
            assignment = self.policy.put_away(code, self.sim_date(event.time))
            metrics = self.metrics
            metrics.put_travel_s += assignment.travel_s
            metrics.put_handle_s += self._put_handle_s
            metrics.turns += assignment.turns
        elif "logging" in sys.modules:  # before its import, no handler or level could show it
            _logger(__name__).info("replenishment at t=%s skipped: no product has a vacant slot",
                                   event.time)
        return event.time + gap
