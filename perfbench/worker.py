"""One benchmark worker: set up one workload in this fresh interpreter, then
measure it.

Usage:
  python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
      --workdir DIR --result FILE [--setup-only]
  python perfbench/worker.py --prewarm

Set-up is everything up to ready: importing slicethin, building and
writing the corpus, and one untimed warm-up op. The worker records the
monotonic clock at ready, so the parent can time set-up from the moment it
started this interpreter. Unless --setup-only, it then runs whole passes
over the corpus, one op at a time, and writes per-op times, digests and
problems to FILE as JSON. --prewarm only imports, so that the .pyc files
exist before anything is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

SRC = workloads.PERFBENCH.parent / "src"
# A measuring run stops after this long even below its minimum op count, so
# that the whole benchmark run ends within its time limit.
HARD_LIMIT_S = 120


def timed(op, tracer):
    state = {}
    span = tracer.start("op") if tracer else None
    start = time.perf_counter()
    try:
        outcome = op.run(state)
    except Exception as exc:  # recorded as the op's outcome
        outcome = type(exc).__name__
    seconds = time.perf_counter() - start
    if tracer:
        tracer.end(span, cells=op.cells)
    return seconds, outcome, state


def checked(op, state, outcome):
    try:
        payload, problems = op.verify(state, outcome)
    except Exception as exc:  # a broken output file, for instance
        payload, problems = {"error": outcome}, [f"verify raised {exc!r}"]
    if outcome != op.expect:
        problems.append(f"outcome {outcome!r}, expected {op.expect!r}")
    return workloads.digest(payload), problems


def measure(ops, seconds, min_ops, rng, tracer):
    """Whole passes in a seeded order, until at least ``min_ops`` ops ran and
    another pass would end more than half a pass after ``seconds``."""
    records = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i in rng.permutation(len(ops)):
            op = ops[i]
            op_seconds, outcome, state = timed(op, tracer)
            digest, problems = checked(op, state, outcome)
            records.append([op.id, op.cells, op_seconds, outcome, op.expect, digest, problems])
        passes += 1
        now = time.perf_counter()
        if now - start > HARD_LIMIT_S:
            break
        if len(records) >= min_ops and now - start + (now - pass_start) / 2 > seconds:
            break
    return records, passes


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prewarm", action="store_true")
    args = parser.parse_args()

    import slicethin

    if not Path(slicethin.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"slicethin imported from {slicethin.__file__}, not from {SRC}")
    if args.prewarm:
        import slicethin.cli  # noqa: F401  (only CLI children import it)

        return

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    index = workloads.WORKLOADS.index(args.workload)
    rng = np.random.default_rng([args.seed, index])
    workdir = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "volume-nd":
        ops = workloads.volume_nd(rng, workdir)
        warmup = workloads.volume_nd_warmup(workdir)
    elif args.workload == "image-2d":
        ops = workloads.image_2d(rng, workdir)
        warmup = workloads.image_2d_warmup(workdir)
    else:
        cli = workloads.CliRunner(dict(os.environ), workdir, tracer)
        ops = workloads.cli_2d(rng, workdir, cli)
        warmup = workloads.cli_2d_warmup(workdir, cli)
    _, outcome, state = timed(warmup, None)
    warmup_digest, warmup_problems = checked(warmup, state, outcome)
    result = {
        "ready": time.monotonic(),
        "warmup": {"digest": warmup_digest, "problems": warmup_problems},
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }

    if not args.setup_only:
        order_rng = np.random.default_rng([args.seed, index, 1])
        records, passes = measure(
            ops, args.seconds, workloads.MIN_OPS[args.workload], order_rng, tracer
        )
        # For cli-2d the work runs in CLI children; RUSAGE_CHILDREN gives
        # the peak of the largest one.
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-2d" else resource.RUSAGE_SELF
        result.update(
            records=records,
            passes=passes,
            peak_rss_kb=resource.getrusage(who).ru_maxrss,
            tail=workloads.TAIL[args.workload],
            layers=tracing.summarize(tracer.spans) if tracer else None,
        )
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
