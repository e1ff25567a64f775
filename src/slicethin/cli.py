"""Command-line front end: thin, compare, metrics, gen.

Exit codes: 0 on success, 1 for algorithm/metric errors (e.g. a 2D-only
baseline applied to a 3D pattern, margin violations, a kernel that finds no
memory for its lists or stack), 2 for usage and
format errors (bad flags, unparseable schedules or files, paths that
cannot be read or written, a 3D pattern written as PBM).

Each input file is read in the format its first token names, under any
name; each output is written in the format its extension names.

The CLI holds each pattern as a ``pattern.Padded`` from read or generation
to write. gen imports no numpy: ``shapes.generate_padded`` evaluates the
solid a line at a time and ``shapes.ruggedize`` draws its noise in pure
Python. thin, compare and metrics import none wherever the C kernels load.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import baselines, metrics, shapes, thinning
from .formats import FormatError, ParseError, write_pattern
from .formats import read_padded as read_pattern  # the name perfbench/tracing.py wraps
from .pattern import DimensionError
from .shapes import MarginError, RuggedSpec, ShapeSpec
from .thinning import ScheduleError

ALGORITHMS = ("nd", "zs", "gh")


def _run_algorithm(algo, pattern, schedule=None):
    if algo == "nd":
        return thinning.thin(pattern, schedule)
    if algo == "zs":
        return baselines.zs_thin(pattern)
    return baselines.gh_thin(pattern)


def cmd_thin(args) -> int:
    pattern = read_pattern(args.input)
    if args.schedule and args.algo != "nd":
        raise _UsageError("--schedule applies to --algo nd only")
    skeleton, iterations = _run_algorithm(args.algo, pattern, args.schedule or None)
    write_pattern(args.output, skeleton)
    if args.metrics:
        report = metrics.evaluate(pattern, skeleton, iterations)
        print(report.csv_row(args.algo))
    return 0


def cmd_compare(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise _UsageError(f"no algorithm in --algos {args.algos!r}")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise _UsageError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    # Read and check every input before the header, so an error prints no rows.
    patterns = [read_pattern(path) for path in args.input]
    if set(algos) - {"nd"} and any(p.ndim != 2 for p in patterns):
        raise DimensionError("baseline thinning supports 2D patterns only")
    print(metrics.CSV_HEADER)
    reports = {algo: [] for algo in algos}
    for pattern in patterns:
        for algo in algos:
            skeleton, iterations = _run_algorithm(algo, pattern)
            report = metrics.evaluate(pattern, skeleton, iterations)
            reports[algo].append(report)
            print(report.csv_row(algo))
    if len(args.input) > 1:
        for algo in algos:
            # Column means over the rows that have a value: m_t is None in 3D.
            columns = zip(*reports[algo])
            print(metrics.MetricsReport(*map(_mean, columns)).csv_row(f"{algo}-avg"))
    return 0


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def cmd_metrics(args) -> int:
    if args.iterations < 0:
        raise _UsageError(f"--iterations must be >= 0, got {args.iterations}")
    pattern = read_pattern(args.input)
    skeleton = read_pattern(args.skeleton)
    report = metrics.evaluate(pattern, skeleton, args.iterations)
    print(metrics.CSV_HEADER)
    print(report.csv_row(args.algorithm))
    return 0


def cmd_gen(args) -> int:
    grid = _parse_grid(args.grid)
    params = {name: getattr(args, name) for name in shapes.PARAMS
              if getattr(args, name) is not None}
    try:
        pattern = shapes.generate_padded(ShapeSpec(kind=args.shape, grid=grid, params=params))
        if args.rugged is not None:
            pattern = shapes.ruggedize(pattern, RuggedSpec(args.rugged, args.seed))
    except MarginError:  # a ValueError, but an algorithm error: exit 1, not 2
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    write_pattern(args.output, pattern)
    return 0


class _UsageError(ValueError):
    pass


def _parse_grid(text):
    parts = text.lower().split("x")
    # ASCII digits only: int() would also take "1_0", "+7", " 7" and "٧".
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise _UsageError(f"bad grid {text!r}; expected e.g. 7x7 or 9x9x5")
    dims = tuple(map(int, parts))
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise _UsageError(f"bad grid {text!r}; need >= 2 positive dimensions")
    return dims


# ASCII only: int() and float() would also take "1_0", " 7" and "٧".
_INT = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"[-+]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|inf|infinity|nan)",
                    re.IGNORECASE | re.ASCII)


def _ascii_int(text):
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"bad integer {text!r}; expected ASCII digits")
    return int(text)


def _ascii_float(text):
    if not _FLOAT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"bad number {text!r}; expected e.g. 3, 2.5 or 1e-3")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicethin", description="Thinning of k-dimensional binary patterns."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_thin = sub.add_parser("thin", help="thin one pattern file")
    p_thin.add_argument("--algo", choices=ALGORITHMS, required=True)
    p_thin.add_argument("--input", required=True)
    p_thin.add_argument("--output", required=True)
    p_thin.add_argument("--schedule", help="nd schedule, e.g. '1fb,0fb' or '2fb;1fb,0fb'")
    p_thin.add_argument("--metrics", action="store_true", help="print a metrics CSV row")
    p_thin.set_defaults(func=cmd_thin)

    p_cmp = sub.add_parser("compare", help="metrics table across algorithms")
    p_cmp.add_argument("--input", nargs="+", required=True)
    p_cmp.add_argument("--algos", default="zs,gh,nd", help="comma list from nd,zs,gh")
    p_cmp.set_defaults(func=cmd_compare)

    p_met = sub.add_parser("metrics", help="evaluate an existing skeleton")
    p_met.add_argument("--input", required=True)
    p_met.add_argument("--skeleton", required=True)
    p_met.add_argument("--iterations", type=_ascii_int, default=0)
    p_met.add_argument("--algorithm", default="unknown", help="label for the CSV row")
    p_met.set_defaults(func=cmd_metrics)

    p_gen = sub.add_parser("gen", help="generate a synthetic test shape")
    p_gen.add_argument("--shape", required=True, choices=shapes.KINDS)
    p_gen.add_argument("--grid", required=True, help="e.g. 7x7 or 9x9x5")
    for name in shapes.PARAMS:
        p_gen.add_argument(f"--{name}", type=_ascii_float)
    p_gen.add_argument("--rugged", type=_ascii_float, help="boundary deletion probability")
    p_gen.add_argument("--seed", type=_ascii_int, default=0)
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, FormatError, ScheduleError, _UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # DimensionError, MarginError, metric errors, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a kernel's, or Python's own, which has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
