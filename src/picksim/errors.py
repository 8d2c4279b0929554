"""Error taxonomy shared across the package.

The CLI maps these onto process exit codes: parse problems exit 2,
validation and bad input data exit 3, and runtime aborts exit 1.

``_logger`` gives each module that logs its ``picksim.*`` logger.  It
imports ``logging`` at the first record, so a run that logs nothing
never loads it.
"""

from __future__ import annotations


class PicksimError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PicksimError):
    """A file could not be read, decoded or written (missing file, bad
    JSON/CSV shape, unwritable output)."""


class ValidationError(PicksimError):
    """Config or input values are structurally readable but invalid.

    Carries the full list of messages so callers can report every
    violation at once instead of stopping at the first.
    """

    def __init__(self, messages: list[str]):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class InputDataError(PicksimError):
    """Semantically inconsistent input data (unknown item, occupied slot, ...)."""


class SimulationAbort(PicksimError):
    """A simulation run had to stop before its work was finished."""


class SchedulePastError(SimulationAbort):
    """An event was scheduled earlier than the current simulation clock."""


class InfeasibleRunError(SimulationAbort):
    """A weekly run cannot finish its orders: it reached the horizon with
    orders unfinished, or, at the first stall of a week that can never
    finish, the picker waits for an item that no visit can restock."""


def _logger(name: str):
    """The ``logging`` logger ``name``, importing ``logging`` on first use."""
    import logging

    return logging.getLogger(name)
