"""In-process tracer that wraps picksim's public functions and methods.

The tracer replaces, on the imported ``picksim.*`` modules, every public
module-level function and every public method, classmethod, staticmethod
and property getter of every public class with a timing wrapper.  A
function another module imported by name (``from .storage import
place_initial``) is replaced there too, so the unmodified program calls
the wrappers wherever it calls the originals.  Nothing under ``src/``
changes.

Every wrapped call is folded into an aggregate keyed by (parent name,
name): call count, summed duration and summed self time (duration minus
the time of wrapped calls made inside it).  Calls named in
``FULL_SPANS`` (event handlers and phases) are also kept as spans: id,
name, start, end and parent id.  Self times telescope, so over a whole
run the self times of all calls add up to the durations of the top-level
calls.

A few leaf accessors (``HOT_LEAVES``) run tens of millions of times per
full-scale run; wrapping them would make the traced run several times
slower than the program it describes.  They are left unwrapped and their
time counts as self time of their caller.
"""

from __future__ import annotations

import enum
import functools
import sys
import time
import types

# Leaf accessors called per candidate slot, per route leg or per vacancy check.
HOT_LEAVES = frozenset({
    "warehouse.Warehouse.is_vacant",
    "warehouse.Warehouse.location",
    "warehouse.Warehouse.item",
    "warehouse.Location.row",
    "warehouse.Location.is_anchor",
    "warehouse.aisle_turns",
    "warehouse.travel_time",
    "storage.StoragePolicy.candidate_slots",
})

# Calls recorded as individual spans in addition to their aggregate.
FULL_SPANS = frozenset({
    "cli.main",
    "experiment.run_scenario",
    "experiment.compare_scenarios",
    "experiment.build_slot_map",
    "experiment.demand_per_week",
    "experiment.summarize_results",
    "experiment.write_results_csv",
    "experiment.write_summary_csv",
    "experiment.write_paired_csv",
    "warehouse.load_layout",
    "warehouse.load_items",
    "warehouse.load_inventory",
    "picking.load_orders",
    "picking.prepare_orders",
    "storage.place_initial",
    "events.Engine.run",
    "picking.PickingSession.handle_spo",
    "picking.PickingSession.handle_pp",
    "replenishment.Replenisher.handle_rp",
    "stats.paired_test",
})

ROOT = "<root>"


class Tracer:
    """Aggregates, spans and return-value counters of one traced run."""

    def __init__(self) -> None:
        # frame: [name, span id, summed duration of wrapped children]
        self._stack: list[list] = [[ROOT, 0, 0.0]]
        self._next_id = 1
        # name -> parent name -> [calls, summed duration, summed self time]
        self.aggregates: dict[str, dict[str, list]] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: dict[str, int] = {}
        self._hooks = {
            "storage.place_initial": self._count_fallbacks,
            "storage.StoragePolicy.put_away": self._count_placed,
            "events.Engine.run": self._count_executed,
        }

    # -- return-value counters -------------------------------------------

    def _bump(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _count_fallbacks(self, result, parent: str) -> None:
        self._bump("storage.place_initial.fallbacks", result)

    def _count_placed(self, result, parent: str) -> None:
        if result is not None and parent == "replenishment.Replenisher.handle_rp":
            self._bump("replenishment.placed", 1)

    def _count_executed(self, result, parent: str) -> None:
        self._bump("events.executed", len(result))

    # -- recording --------------------------------------------------------

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured outside any wrapper."""
        parent = self._stack[-1]
        parent[2] += end - start
        by_parent = self.aggregates.setdefault(name, {})
        by_parent[parent[0]] = [1, end - start, end - start]
        self.spans.append((self._new_id(), name, start, end, parent[1]))

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def wrap(self, name: str, fn):
        stack = self._stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter
        by_parent = self.aggregates.setdefault(name, {})
        full = name in FULL_SPANS
        spans = self.spans
        new_id = self._new_id
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, new_id() if full else 0, 0.0]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                duration = end - start
                parent[2] += duration
                agg = by_parent.get(parent[0])
                if agg is None:
                    agg = by_parent[parent[0]] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
                if full:
                    spans.append((frame[1], name, start, end, parent[1]))
            if hook is not None:
                hook(result, parent[0])
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package: str) -> int:
        """Wrap every public callable of the loaded ``package.*`` modules.

        Returns the number of callables wrapped.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        replaced: dict[int, object] = {}
        wrapped = 0
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{short}.{attr}"
                    if name not in HOT_LEAVES:
                        replaced[id(obj)] = self.wrap(name, obj)
                elif isinstance(obj, type) and not issubclass(obj, (BaseException, enum.Enum)):
                    wrapped += self._wrap_class(f"{short}.{attr}", obj)
        # rebind every module-level reference, including names imported
        # from a sibling module and the package's re-exports
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        return wrapped + len(replaced)

    def _wrap_class(self, prefix: str, cls: type) -> int:
        wrapped = 0
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in HOT_LEAVES:
                continue
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(name, obj.__func__)))
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.wrap(name, obj.fget), obj.fset,
                                            obj.fdel, obj.__doc__))
            else:
                continue
            wrapped += 1
        return wrapped

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        return {
            "aggregates": [[parent, name, *agg]
                           for name, by_parent in sorted(self.aggregates.items())
                           for parent, agg in sorted(by_parent.items())],
            "spans": self.spans,
            "counters": dict(sorted(self.counters.items())),
        }
