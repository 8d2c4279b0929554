"""Time picksim's set-up on one dataset in a fresh interpreter.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/setup_probe.py DATA_DIR CONFIG_JSON WEEKS ALLOCATION...

Times ``import picksim``, the four CSV loaders, ``demand_per_week`` and
one ``build_slot_map`` per allocation rule, the work every scenario run
does before its first simulated week.  Prints ``{"setup_s": seconds,
"setup_wall_s": seconds}``: ``setup_s`` is the CPU time of this process
over that span, ``setup_wall_s`` its host wall time.
"""

import sys
import time

_t0 = time.perf_counter()
_c0 = time.process_time()
import picksim  # noqa: E402  (timed import)
from picksim.experiment import (  # noqa: E402
    build_slot_map,
    demand_per_week,
)

import json  # noqa: E402


def main() -> int:
    data, config_path, weeks, allocations = (sys.argv[1], sys.argv[2], int(sys.argv[3]),
                                             sys.argv[4:])
    cfg = picksim.load_config(config_path)
    paths = picksim.DataPaths.from_dir(data)
    layout = picksim.load_layout(paths.layout)
    items = picksim.load_items(paths.items)
    picksim.load_inventory(paths.inventory)
    orders = picksim.load_orders(paths.orders, {i.code: i for i in items})
    avg_picks = demand_per_week(orders, weeks)
    for rule in allocations:
        spec = picksim.ScenarioSpec(
            name="setup", policy=picksim.PolicyKind.FIXED,
            allocation=picksim.AllocationRule(rule), picking=picksim.PickingMode.AREA,
            weeks=weeks, seed=0, config=cfg, data=paths,
        )
        build_slot_map(spec, layout, avg_picks, [i.code for i in items])
    cpu = time.process_time() - _c0
    wall = time.perf_counter() - _t0
    print(json.dumps({"setup_s": cpu, "setup_wall_s": wall}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
