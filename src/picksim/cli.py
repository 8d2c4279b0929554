"""Command-line entry point.

Subcommands:

``simulate``
    Run one scenario (policy x allocation x picking mode) over N weekly
    terminating runs and print the weekly metrics; optionally write
    ``results.csv`` and per-week event traces.  Only fixed storage reads
    the allocation, so ``--allocation`` with another ``--policy`` is
    refused; without it the scenario is named ``<policy>-homogeneous-<picking>``.
``compare``
    Run the homogeneous and the demand-proportional allocation of the
    same dataset back to back, print both summaries plus the paired
    t-test, and write ``results.csv`` / ``summary.csv`` / ``paired.csv``.
    Only fixed storage reads the allocation, so another ``--policy`` is
    refused.
``gen-data``
    Emit a deterministic synthetic dataset (layout, items, inventory,
    orders) of a requested scale.
``stats``
    Aggregate one or two weekly-metric CSV files (``week,metric``)
    without running any simulation.

Exit codes: 0 success, 1 simulation failure (a week that can never
finish: the picker waits for an item no visit can restock), 2 malformed
command line, unreadable input or an output file or standard output
that cannot be written, 3 invalid configuration or input data.  A week
has no time limit: it ends when its last order completes.

The master seed of ``simulate`` and ``compare`` is their ``--seed`` flag,
``DEFAULT_SEED`` (12345) without it; nothing else sets it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .allocation import AllocationRule
from .config import SimConfig, load_config
from .errors import (
    InputDataError,
    ParseError,
    PicksimError,
    ValidationError,
)
from .experiment import (
    DataPaths,
    RunResult,
    ScenarioSpec,
    ScenarioSummary,
    compare_scenarios,
    run_scenario,
    summarize_results,
    summary_rows,
    write_paired_csv,
    write_results_csv,
    write_summary_csv,
)
from .picking import PickingMode
from .stats import PairedTest, paired_test
from .storage import PolicyKind
from .warehouse import _TooManyDigits, _finite, _int, _reading

DEFAULT_SEED = 12345
WEEKLY_HEADER = ["week", "metric"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors on one line and exits 2.  The
    line quotes an argument, or the value after an option's ``=``, by at
    most its first 200 characters."""

    def parse_known_args(self, args=None, namespace=None):  # noqa: D102 - argparse hook
        self._args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):  # noqa: D102 - argparse hook
        for arg in self._args:
            for text in (arg, arg.partition("=")[2]):
                if len(text) > 200:
                    message = message.replace(repr(text), repr(text[:200])).replace(
                        text, text[:200])
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _integer(text: str) -> int:
    """argparse type for an integer flag: ``int``, but a number of more digits
    than Python converts is refused as such, without echoing its digits."""
    try:
        return _int(text)
    except _TooManyDigits as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _weeks(text: str) -> int:
    """argparse type for --weeks: an integer of at least 1."""
    weeks = _integer(text)
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
    sim.add_argument("--allocation", choices=[r.value for r in AllocationRule], default=None,
                     help="slot-allocation rule of --policy fixed (default homogeneous); "
                          "other policies read no slot map and refuse it")
    sim.add_argument("--name", type=_name, default=None, help="scenario label in outputs")
    sim.add_argument("--trace", action="store_true",
                     help="write per-week event traces into --out")

    cmp_ = sub.add_parser("compare",
                          help="homogeneous vs demand-proportional allocation "
                               "(fixed storage only)")
    _common_run_args(cmp_)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=_integer, default=DEFAULT_SEED)
    gen.add_argument("--items", type=_integer, default=10)
    gen.add_argument("--slots", type=_integer, default=48)
    gen.add_argument("--lines", type=_integer, default=120)
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
                   default=PolicyKind.FIXED.value, help="storage policy (default fixed)")
    p.add_argument("--picking", choices=[m.value for m in PickingMode],
                   default=PickingMode.AREA.value, help="picking mode (default area)")
    p.add_argument("--weeks", type=_weeks, default=4)
    p.add_argument("--seed", type=_integer, default=DEFAULT_SEED,
                   help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--out", default=None, help="directory for result CSVs")
    p.add_argument("--audit", action="store_true",
                   help="verify stock conservation after every event")


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


def _spec(args, cfg: SimConfig, allocation: str, name: str) -> ScenarioSpec:
    """The scenario of a run command's arguments under one slot allocation."""
    return ScenarioSpec(name=name, policy=PolicyKind(args.policy),
                        allocation=AllocationRule(allocation),
                        picking=PickingMode(args.picking), weeks=args.weeks, seed=args.seed,
                        config=cfg, data=DataPaths.from_dir(args.data))


def _report(out: str | None, results: list[RunResult], summaries: list[ScenarioSummary],
            paired: PairedTest | None = None) -> int:
    """Print each result's weeks, then the summary lines and the paired
    test; then write each of the three that is present (a list that is
    not empty, a test) under ``out``."""
    for res in results:
        print(f"scenario {res.scenario} (metric unit: {res.unit})")
        for wk in res.weeks:
            print(f"  week {wk.week}: {wk.metric:.2f}")
        print(f"  total: {res.total:.2f}")
    for name, mean, lo, hi, total, gap_pct in summary_rows(summaries):
        print(f"{name}: mean={mean} ci95=[{lo}, {hi}] total={total} gap={gap_pct}%")
    if paired is not None:
        print(f"paired t-test: statistic={paired.statistic:.4f} "
              f"df={paired.df} p={paired.p_value:.4f}")
    if out:
        if results:
            write_results_csv(results, str(Path(out) / "results.csv"))
        if summaries:
            write_summary_csv(summaries, str(Path(out) / "summary.csv"))
        if paired is not None:
            write_paired_csv(paired, str(Path(out) / "paired.csv"))
    return 0


def _cmd_simulate(args) -> int:
    if args.allocation is not None and args.policy != PolicyKind.FIXED.value:
        raise InputDataError(f"--allocation sizes the slot map, which only --policy fixed "
                             f"reads; --policy {args.policy} would ignore it")
    allocation = args.allocation or AllocationRule.HOMOGENEOUS.value
    cfg = SimConfig() if args.config is None else load_config(args.config)
    spec = _spec(args, cfg, allocation,
                 args.name or f"{args.policy}-{allocation}-{args.picking}")
    _check_out(args.out)
    if args.trace and not args.out:
        raise ParseError("--trace requires --out to know where to write traces")
    result = run_scenario(spec, audit=args.audit, trace_dir=args.out if args.trace else None)
    summaries = []
    if len(result.weeks) >= 2:
        summaries = summarize_results([(result.scenario, result.weekly_metrics)])
    return _report(args.out, [result], summaries)


def _cmd_compare(args) -> int:
    if args.weeks < 2:
        raise ParseError(f"argument --weeks: compare needs at least 2 weeks for its "
                         f"paired t-test, got {args.weeks}")
    if args.policy != PolicyKind.FIXED.value:
        raise InputDataError(f"compare varies the slot allocation, which only --policy fixed "
                             f"reads; --policy {args.policy} would run one configuration twice")
    _check_out(args.out)
    cfg = SimConfig() if args.config is None else load_config(args.config)
    comparison = compare_scenarios(
        _spec(args, cfg, AllocationRule.HOMOGENEOUS.value, "S1-homogeneous"),
        _spec(args, cfg, AllocationRule.DEMAND_BASED.value, "S2-demand"),
        audit=args.audit)
    print(f"metric unit: {cfg.metric_unit}")
    return _report(args.out, *comparison)


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
    with _reading(path, WEEKLY_HEADER) as rows:
        for week, metric in rows:
            week = _int(week)
            if week in weekly:
                raise InputDataError(f"week {week} appears twice")
            weekly[week] = _finite(metric)
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
    paired = paired_test(series[0][1], series[1][1]) if len(series) == 2 else None
    return _report(args.out, [], summaries, paired)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"simulate": _cmd_simulate, "compare": _cmd_compare,
                "gen-data": _cmd_gen_data, "stats": _cmd_stats}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except BrokenPipeError as exc:
        # the flush at exit would fail again; see "Note on SIGPIPE" in the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to standard output: {exc}", file=sys.stderr)
        return 2
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
