"""Command-line entry point.

Subcommands:

``simulate``
    Run one scenario (policy x allocation x picking mode) over N weekly
    terminating runs and print the weekly metrics; optionally write
    ``results.csv`` and per-week event traces.
``compare``
    Run the homogeneous and the demand-proportional allocation of the
    same dataset back to back, print both summaries plus the paired
    t-test, and write ``results.csv`` / ``summary.csv`` / ``paired.csv``.
``gen-data``
    Emit a deterministic synthetic dataset (layout, items, inventory,
    orders) of a requested scale.
``stats``
    Aggregate one or two weekly-metric CSV files (``week,metric``)
    without running any simulation.

Exit codes: 0 success, 1 simulation failure (horizon overrun), 2
malformed command line, unreadable input or an output file that cannot
be written, 3 invalid configuration or input data.

The master seed is resolved in order: ``--seed`` flag, explicit
``replenish.seed`` in the config file, ``PICKSIM_SEED`` environment
variable, then the built-in default 12345.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .allocation import AllocationRule
from .config import SimConfig, _read_json_object, config_from_dict
from .errors import (
    InputDataError,
    ParseError,
    PicksimError,
    ValidationError,
)
from .experiment import (
    Comparison,
    DataPaths,
    RunResult,
    ScenarioSpec,
    compare_scenarios,
    run_scenario,
    summarize_results,
    summary_rows,
    write_paired_csv,
    write_results_csv,
    write_summary_csv,
)
from .picking import PickingMode
from .stats import paired_test
from .storage import PolicyKind
from .warehouse import _finite, _read_csv

DEFAULT_SEED = 12345
WEEKLY_HEADER = ["week", "metric"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors on one line and exits 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _weeks(text: str) -> int:
    """argparse type for --weeks: an integer of at least 1."""
    try:
        weeks = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if weeks < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {weeks}")
    return weeks


def _name(text: str) -> str:
    """argparse type for --name: a label without a path separator, since a
    trace file's name is built from it."""
    if any(sep and sep in text for sep in ("/", os.sep, os.altsep)):
        raise argparse.ArgumentTypeError(f"must not contain a path separator, got {text!r}")
    return text


def _build_parser() -> _Parser:
    parser = _Parser(prog="picksim", description="warehouse picking simulator")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run one scenario")
    _common_run_args(sim)
    sim.add_argument("--allocation", choices=[r.value for r in AllocationRule],
                     default=AllocationRule.HOMOGENEOUS.value,
                     help="slot-allocation rule (default homogeneous)")
    sim.add_argument("--name", type=_name, default=None, help="scenario label in outputs")
    sim.add_argument("--trace", action="store_true",
                     help="write per-week event traces into --out")

    cmp_ = sub.add_parser("compare",
                          help="homogeneous vs demand-proportional allocation")
    _common_run_args(cmp_)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--items", type=int, default=10)
    gen.add_argument("--slots", type=int, default=48)
    gen.add_argument("--lines", type=int, default=120)
    gen.add_argument("--weeks", type=_weeks, default=4)

    st = sub.add_parser("stats", help="summarize weekly metric files")
    st.add_argument("--weekly", nargs="+", required=True, metavar="FILE",
                    help="one or two CSV files with header week,metric")
    st.add_argument("--out", default=None, help="directory for summary/paired CSVs")
    return parser


def _common_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True,
                   help="dataset directory (layout/items/initial_inventory/orders)")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--policy", choices=[k.value for k in PolicyKind],
                   default=PolicyKind.FIXED.value,
                   help="storage policy (default fixed)")
    p.add_argument("--picking", choices=[m.value for m in PickingMode],
                   default=PickingMode.AREA.value,
                   help="picking mode (default area)")
    p.add_argument("--weeks", type=_weeks, default=4)
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--out", default=None, help="directory for result CSVs")
    p.add_argument("--audit", action="store_true",
                   help="verify stock conservation after every event")


def _config_and_seed(args) -> tuple[SimConfig, int]:
    """The ``--config`` file (defaults without one) and the master seed."""
    raw = {} if args.config is None else _read_json_object(args.config)
    cfg = config_from_dict(raw)
    if args.seed is not None:
        return cfg, args.seed
    if "seed" in (raw.get("replenish") or {}):
        return cfg, cfg.replenish.seed
    env = os.environ.get("PICKSIM_SEED")
    if env is None:
        return cfg, DEFAULT_SEED
    try:
        return cfg, int(env)
    except ValueError as exc:
        raise ParseError(f"PICKSIM_SEED must be an integer, got {env!r}") from exc


def _check_out(path: str | None) -> None:
    """Refuse an ``--out`` that cannot become a directory, such as an empty
    path, an existing file, a dangling link or a path below one of them,
    before any work starts.  The directory itself is made only when there
    is something to write."""
    if path is None:
        return
    if not path:
        raise ParseError("argument --out: must name a directory, got ''")
    nearest = next(p for p in (Path(path), *Path(path).parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise ParseError(f"argument --out: cannot make directory {path}: "
                         f"{nearest} is not a directory")


def _print_result(res: RunResult) -> None:
    print(f"scenario {res.scenario} (metric unit: {res.unit})")
    for wk in res.weeks:
        print(f"  week {wk.week}: {wk.metric:.2f}")
    print(f"  total: {res.total:.2f}")


def _print_summaries(summaries, paired=None) -> None:
    for row in summary_rows(summaries):
        name, mean, lo, hi, total, gap_pct = row
        print(f"{name}: mean={mean} ci95=[{lo}, {hi}] total={total} gap={gap_pct}%")
    if paired is not None:
        print(f"paired t-test: statistic={paired.statistic:.4f} "
              f"df={paired.df} p={paired.p_value:.4f}")


def _cmd_simulate(args) -> int:
    cfg, seed = _config_and_seed(args)
    name = args.name or f"{args.policy}-{args.allocation}-{args.picking}"
    spec = ScenarioSpec(
        name=name,
        policy=PolicyKind(args.policy),
        allocation=AllocationRule(args.allocation),
        picking=PickingMode(args.picking),
        weeks=args.weeks,
        seed=seed,
        config=cfg,
        data=DataPaths.from_dir(args.data),
    )
    _check_out(args.out)
    if args.trace and not args.out:
        raise ParseError("--trace requires --out to know where to write traces")
    trace_dir = args.out if args.trace else None
    result = run_scenario(spec, audit=args.audit, trace_dir=trace_dir)
    _print_result(result)
    summaries = None
    if len(result.weeks) >= 2:
        summaries = summarize_results([(result.scenario, result.weekly_metrics)])
        _print_summaries(summaries)
    if args.out:
        out = Path(args.out)
        write_results_csv([result], str(out / "results.csv"))
        if summaries is not None:
            write_summary_csv(summaries, str(out / "summary.csv"))
    return 0


def _cmd_compare(args) -> int:
    if args.weeks < 2:
        raise ParseError(f"argument --weeks: compare needs at least 2 weeks for its "
                         f"paired t-test, got {args.weeks}")
    _check_out(args.out)
    cfg, seed = _config_and_seed(args)
    common = dict(
        policy=PolicyKind(args.policy),
        picking=PickingMode(args.picking),
        weeks=args.weeks,
        seed=seed,
        config=cfg,
        data=DataPaths.from_dir(args.data),
    )
    base = ScenarioSpec(name="S1-homogeneous",
                        allocation=AllocationRule.HOMOGENEOUS, **common)
    other = ScenarioSpec(name="S2-demand",
                         allocation=AllocationRule.DEMAND_BASED, **common)
    cmp_result: Comparison = compare_scenarios(base, other, audit=args.audit)
    print(f"metric unit: {cfg.metric_unit}")
    for res in cmp_result.results:
        _print_result(res)
    _print_summaries(cmp_result.summaries, cmp_result.paired)
    if args.out:
        out = Path(args.out)
        write_results_csv(cmp_result.results, str(out / "results.csv"))
        write_summary_csv(cmp_result.summaries, str(out / "summary.csv"))
        write_paired_csv(cmp_result.paired, str(out / "paired.csv"))
    return 0


def _cmd_gen_data(args) -> int:
    from .datagen import generate_data  # only this command loads the generator

    _check_out(args.out)
    paths = generate_data(args.out, args.seed, args.items, args.slots,
                          args.lines, args.weeks)
    for role, path in paths.items():
        print(f"{role}: {path}")
    return 0


def _read_weekly(path: str) -> tuple[str, dict[int, float]]:
    """File stem and ``{week: metric}`` in file order; each week is an integer
    that appears once."""
    weekly: dict[int, float] = {}

    def row(cells: list[str]) -> None:
        week = int(cells[0])
        if week in weekly:
            raise InputDataError(f"week {week} appears twice")
        weekly[week] = _finite(cells[1])

    _read_csv(path, WEEKLY_HEADER, row)
    return Path(path).stem, weekly


def _cmd_stats(args) -> int:
    if len(args.weekly) not in (1, 2):
        raise ParseError("--weekly takes one or two files")
    _check_out(args.out)
    read = [_read_weekly(p) for p in args.weekly]
    if len(read) == 2 and list(read[0][1]) != list(read[1][1]):
        raise InputDataError(f"{args.weekly[0]} and {args.weekly[1]} must list the same "
                             f"weeks in the same order: the paired test pairs their rows")
    series = [(name, list(weekly.values())) for name, weekly in read]
    for name, values in series:
        if len(values) < 2:
            raise InputDataError(f"{name}: need at least two weekly values, got {len(values)}")
    summaries = summarize_results(series)
    paired = None
    if len(series) == 2:
        paired = paired_test(series[0][1], series[1][1])
    _print_summaries(summaries, paired)
    if args.out:
        out = Path(args.out)
        write_summary_csv(summaries, str(out / "summary.csv"))
        if paired is not None:
            write_paired_csv(paired, str(out / "paired.csv"))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"simulate": _cmd_simulate, "compare": _cmd_compare,
                "gen-data": _cmd_gen_data, "stats": _cmd_stats}
    try:
        return commands[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, InputDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PicksimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
