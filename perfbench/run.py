"""Seeded benchmark of slicethin: end-to-end metrics, or per-layer metrics
from a traced run.

Usage:
  python3 perfbench/run.py --workload volume-nd --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --seed 1      # every workload, untraced then traced

Workloads, metrics and the reasons for both are in perfbench/NOTES.md.
Each workload runs in fresh interpreters (perfbench/worker.py) that import
the package from this checkout's src/. Untraced, three interpreters set up
the workload and the median set-up time is reported; the last one also
measures. Traced, one interpreter measures with span wrappers installed,
and three more time ``import slicethin``.

Every op's digest must repeat across passes; at the reference seed it must
also equal perfbench/reference.json. For any other seed the digests are
printed, so that two commits can be compared. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is 1 when that object's ``correct`` is false. A
result file with the environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402  (stdlib + numpy; imports no slicethin module)

REFERENCE_SEED = 1
SETUP_REPS = 3
IMPORT_REPS = 3
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    # The untimed pre-warm import must leave .pyc files behind, or every
    # timed interpreter would compile the package again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, deadline, check=False, capture=False):
    """Run ``cmd`` in its own process group and wait for it; on the time
    limit or an interrupt, kill the whole group, CLI grandchildren included."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached")
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    with subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=pipe, stderr=pipe if capture else None,
        text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"time limit reached running {cmd[1:3]}") from None
            raise
    if check and proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited with {proc.returncode}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker(workload, seed, seconds, trace, workdir, deadline, setup_only=False):
    result_path = workdir.with_suffix(".json")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    run_child(cmd, deadline, check=True)
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def import_stats(deadline):
    """Median over fresh interpreters of ``import slicethin`` wall time and
    of the ``-X importtime`` breakdown."""
    samples = []
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "import slicethin"], deadline, check=True)
        wall = time.perf_counter() - start
        proc = run_child(
            [sys.executable, "-X", "importtime", "-c", "import slicethin"],
            deadline, check=True, capture=True,
        )
        stats = {"process_s": wall, "slicethin_s": 0.0, "numpy_s": 0.0, "scipy_s": 0.0, "modules": 0}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            own_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
            stats["modules"] += 1
            if name == "slicethin":
                stats["slicethin_s"] = cumulative_us / 1e6
            for package in ("numpy", "scipy"):
                if name == package or name.startswith(package + "."):
                    stats[f"{package}_s"] += own_us / 1e6
        samples.append(stats)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed, versions):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


def check_records(workload, seed, records, warmups, reference):
    """Mark every record that disagrees with an earlier pass, with the
    reference digests or with the workload's own checks. Returns the list of
    problems not tied to a single op."""
    general = []
    ref_warmup = reference.get("warmup", {}).get(workload)
    for warm in warmups:
        general += [f"warm-up: {p}" for p in warm["problems"]]
        if ref_warmup and warm["digest"] != ref_warmup:
            general.append("warm-up digest differs from the reference")
    ref_ops = reference.get("ops", {}).get(workload) if seed == reference.get("seed") else None
    first = {}
    for op_id, _, _, _, _, digest, problems in records:
        if first.setdefault(op_id, digest) != digest:
            problems.append("digest differs from an earlier pass")
        if ref_ops is not None and ref_ops.get(op_id) != digest:
            problems.append("digest differs from the reference")
    if ref_ops is not None and set(ref_ops) != set(first):
        general.append("op ids differ from the reference")
    return general, first


def run_workload(workload, seed, seconds, trace, reference, write_reference=False):
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run_child([sys.executable, str(HERE / "worker.py"), "--prewarm"], deadline, check=True)
        if trace:
            imports = import_stats(deadline)
            results = [worker(workload, seed, seconds, 1, workdir / "w0", deadline)]
        else:
            results = [
                worker(workload, seed, seconds, 0, workdir / f"w{rep}", deadline,
                       setup_only=rep < SETUP_REPS - 1)
                for rep in range(SETUP_REPS)
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    final = results[-1]
    records = final["records"]
    warmups = [r["warmup"] for r in results]
    if write_reference:
        reference.setdefault("warmup", {})[workload] = warmups[0]["digest"]
        reference.setdefault("ops", {})[workload] = {r[0]: r[5] for r in records}
    general, digests = check_records(workload, seed, records, warmups, reference)

    times = [r[2] for r in records]
    failed = sum(1 for r in records if r[6])
    # The only outcome other than "ok" that an op may expect is the known failure.
    known = sum(1 for r in records if not r[6] and r[3] == r[4] != "ok")
    ok = sum(1 for r in records if not r[6] and r[3] == "ok")
    cells = sum(r[1] for r in records)
    if trace:
        metrics = tracing.layer_metrics(final["layers"], imports)
    else:
        metrics = {
            "cells_per_s": (cells / sum(times), "cells/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_tail_ms": (percentile(times, final["tail"]) * 1e3, "ms"),
            "peak_rss_mb": (final["peak_rss_kb"] / 1024, "MiB"),
            "ok_frac": (ok / len(records), "ratio"),
            "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        }
    return {
        "workload": workload,
        "trace": trace,
        "environment": environment(seed, final["versions"]),
        "passes": final["passes"],
        "ops": len(records),
        "distinct_ops": len(digests),
        "cells": cells,
        "tail_percentile": final["tail"],
        "setup_samples_s": [r["setup_s"] for r in results],
        "known_failures": known,
        "failed": failed,
        "problems": general + sorted({p for r in records for p in r[6]}),
        "reference_checked": seed == reference.get("seed") and not write_reference,
        "digests": digests,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def report(res):
    env = res["environment"]
    print(
        f"# {res['workload']} seed={env['seed']} trace={res['trace']}: {res['passes']} passes, "
        f"{res['ops']} ops ({res['distinct_ops']} distinct), {res['cells']} cells, "
        f"op_tail_ms = p{res['tail_percentile']}"
    )
    print(
        f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, {env['cpu']}"
    )
    print(
        f"# fail_frac = {res['known_failures']}/{res['ops']} ops end in the known failure "
        "(ZS on a solid disc); unexpected failures: "
        f"{res['failed']}/{res['ops']}"
    )
    if res["reference_checked"]:
        print(f"# digests of {res['distinct_ops']} ops checked against {REFERENCE.name}")
    else:
        for op_id, digest in sorted(res["digests"].items()):
            print(f"digest {res['workload']} {op_id} {digest}")
    for problem in res["problems"]:
        print(f"# PROBLEM: {problem}")
        print(f"PROBLEM: {res['workload']}: {problem}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    if not (SRC / "slicethin" / "__init__.py").is_file():
        print(f"error: no slicethin package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both, untraced first")
    parser.add_argument(
        "--write-reference", action="store_true",
        help=f"store this run's digests as the reference (seed {REFERENCE_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if args.write_reference:
        reference["seed"] = REFERENCE_SEED

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = []
    try:
        for workload in selected:
            for trace in traces:
                res = run_workload(
                    workload, args.seed, args.seconds, trace, reference, args.write_reference
                )
                report(res)
                OUT.mkdir(exist_ok=True)
                name = f"{workload}-seed{args.seed}-trace{trace}.json"
                (OUT / name).write_text(json.dumps(res, indent=1))
                results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.write_reference:
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    by_workload = {}
    for res in results:
        by_workload.setdefault(res["workload"], {})[res["trace"]] = res
    for workload, runs in by_workload.items():
        if len(runs) == 2:
            plain = runs[0]["metrics"]["cells_per_s"]["value"]
            traced = runs[1]["metrics"]["trace.cells_per_s"]["value"]
            print(f"# {workload}: tracing overhead {plain - traced:.6g} cells/s "
                  f"({(plain - traced) / plain:.1%} of untraced cells_per_s)")

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}.t{res['trace']}."
        for name, m in res["metrics"].items():
            metrics[prefix + name] = m
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["ops"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
