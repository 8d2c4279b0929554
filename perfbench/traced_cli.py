"""Run the picksim CLI once under the tracer and dump what it recorded.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_cli.py TRACE_JSON -- CLI_ARGS...

The import of ``picksim.cli`` is timed first, before anything else is
imported, and recorded as the top-level span ``cli.import``.  Then every
public callable of the package is wrapped and the unmodified
``picksim.cli.main`` runs with ``CLI_ARGS``.  The exit code is the CLI's.
"""

import sys
import time

_t0 = time.perf_counter()
import picksim.cli  # noqa: E402  (timed import)
_t1 = time.perf_counter()

import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path = sys.argv[1]
    if sys.argv[2:3] != ["--"]:
        print("usage: traced_cli.py TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.add_span("cli.import", _t0, _t1)
    wrapped = tracer.install("picksim")
    code = picksim.cli.main(sys.argv[3:])
    record = tracer.export()
    record["exit_code"] = code
    record["wrapped"] = wrapped
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
