"""Seeded corpora and timed operations (ops) of the benchmark workloads.

Each workload builds its corpus from the seed and returns a list of ops.
An op's ``run`` is the timed part; ``verify`` runs after the timer and
returns the op's digest payload and a list of problems found by checks
that hold for every seed. Ops call the package through module attributes
(``thinning.thin``, ``formats.read_pattern``, ...) so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import ndimage

import slicethin.baselines as baselines
import slicethin.formats as formats
import slicethin.metrics as metrics
import slicethin.shapes as shapes
import slicethin.thinning as thinning
from slicethin.shapes import RuggedSpec, ShapeSpec

PERFBENCH = Path(__file__).resolve().parent

# ZS erases every solid disc; evaluate then raises UndefinedMetricError and
# the CLI exits 1. These ops are kept on purpose and reported as the known
# failure. ZS also erases about half of all rugged discs, depending on the
# noise, so no op applies ZS to a rugged disc: the failure share would then
# depend on the seed.
KNOWN_FAILURE_LIB = "UndefinedMetricError"
KNOWN_FAILURE_CLI = "exit 1"

WORKLOADS = ("volume-nd", "cli-2d", "image-2d")

# op_tail_ms percentile per workload: the highest one with at least ten ops
# beyond it at the workload's minimum op count.
TAIL = {"volume-nd": 75, "cli-2d": 75, "image-2d": 90}
MIN_OPS = {"volume-nd": 40, "cli-2d": 40, "image-2d": 100}


@dataclass
class Op:
    id: str
    cells: int
    run: Callable[[dict], str]
    verify: Callable[[dict, str], tuple[dict, list]]
    expect: str = "ok"


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def pattern_digest(arr) -> str:
    h = hashlib.sha256(repr(tuple(arr.shape)).encode())
    h.update(np.packbits(np.asarray(arr, dtype=bool), axis=None).tobytes())
    return h.hexdigest()


def decode_file(path) -> np.ndarray:
    """Decode a plain PBM or NDBIN file without the package's parsers."""
    tokens = re.sub(rb"#[^\n]*", b"", Path(path).read_bytes()).split()
    if tokens[0] == b"P1":
        shape, bits = (int(tokens[2]), int(tokens[1])), b"".join(tokens[3:])
    elif tokens[0] == b"NDBIN":
        k = int(tokens[1])
        shape, bits = tuple(int(t) for t in tokens[2 : 2 + k]), b"".join(tokens[2 + k :])
    else:
        raise ValueError(f"unknown magic {tokens[0]!r}")
    if bits.strip(b"01") or len(bits) != int(np.prod(shape)):
        raise ValueError(f"bad payload for shape {shape}")
    return (np.frombuffer(bits, dtype=np.uint8) == ord("1")).reshape(shape)


def components(arr) -> int:
    return ndimage.label(arr, structure=np.ones((3,) * arr.ndim, dtype=bool))[1]


def _skeleton_problems(pattern, skeleton):
    problems = []
    if np.any(skeleton & ~pattern):
        problems.append("skeleton is not a subset of the input")
    if components(skeleton) != components(pattern):
        problems.append("thinning changed the component count")
    return problems


def _near(rng, value):
    """``value`` within +-1.5%, rounded to 0.01 so that it survives the CLI.

    The jitter is small on purpose: a seed changes every skeleton but not
    the cost of the corpus, so runs at different seeds stay comparable.
    """
    return round(float(value * rng.uniform(0.985, 1.015)), 2)


# ---------------------------------------------------------------- shapes


KINDS_3D = (
    "sphere",
    "cylinder",
    "hyperboloid-one-sheet",
    "hyperboloid-two-sheet",
    "elliptic-paraboloid",
)


def params_3d(kind, n, rng):
    half = (n - 3) / 2
    height = n - 4
    h = (height - 1) / 2
    if kind == "sphere":
        return {"radius": _near(rng, half - 0.3)}
    if kind == "cylinder":
        return {"radius": _near(rng, 0.75 * half), "height": height}
    if kind == "hyperboloid-one-sheet":
        # Widest at |z| = h: radius * sqrt(1 + (h / slope)^2) = 1.5 * radius.
        return {"radius": _near(rng, 0.56 * half), "slope": _near(rng, 0.9 * h), "height": height}
    if kind == "hyperboloid-two-sheet":
        # Widest at |z| = h: radius * sqrt((h / slope)^2 - 1) = 1.8 * radius.
        return {"radius": _near(rng, 0.45 * half), "slope": _near(rng, 0.5 * h), "height": height}
    # elliptic-paraboloid: widest at radius * sqrt(height - 1).
    return {"radius": _near(rng, 0.9 * half / np.sqrt(height - 1)), "height": height}


def params_2d(kind, n, rng):
    if kind == "disc":
        # Not seeded. ZS erases this disc at every size used here, but it
        # leaves a remnant of a few discs whose radius is within 1.5% of it,
        # and the known-failure share must not depend on the seed.
        return {"radius": (n - 6) / 2}
    if kind == "rugged-disc":
        return {"radius": _near(rng, 0.97 * (n - 6) / 2)}
    if kind == "square":
        return {"side": _near(rng, 0.6 * n)}
    if kind == "rectangle":
        return {"height": _near(rng, 0.4 * n), "width": _near(rng, 0.8 * n)}
    return {"base": _near(rng, 0.8 * n), "height": _near(rng, 0.7 * n)}


def rugged_spec(rng):
    return RuggedSpec(0.2, int(rng.integers(1 << 31)))


def make_2d(kind, n, rng):
    """A 2D corpus shape; kind "rugged-disc" is a disc with boundary noise.

    Returns (pattern, shape kind, params, rugged spec or None).
    """
    shape = "disc" if kind == "rugged-disc" else kind
    params = params_2d(kind, n, rng)
    pattern = shapes.generate(ShapeSpec(shape, (n, n), params))
    spec = rugged_spec(rng) if kind == "rugged-disc" else None
    if spec is not None:
        pattern = shapes.ruggedize(pattern, spec)
    return pattern, shape, params, spec


# ------------------------------------------------------------- volume-nd


SCHEDULES = (None, "2fb", "2fb;1fb,0fb")


def _thin_op(op_id, pattern, schedule):
    def run(state):
        state["skeleton"], state["iterations"] = thinning.thin(pattern, schedule)
        return "ok"

    def verify(state, outcome):
        if outcome != "ok":
            return {"error": outcome}, []
        skeleton, iterations = state["skeleton"], state["iterations"]
        payload = {"skeleton": pattern_digest(skeleton), "iterations": iterations}
        return payload, _skeleton_problems(pattern, skeleton)

    return Op(op_id, int(pattern.size), run, verify)


def volume_nd(rng, workdir):
    """Five 3D kinds on 16^3..40^3, every other one rugged, under three
    schedules, plus eight random 4D patterns of density 0.5 (8^4 and 9^4).

    The cost of a random pattern varies with the seed by up to a half, so
    the 4D patterns are sized to stay away from the ranks of op_p50_ms and
    op_tail_ms: the six 8^4 patterns cost about what the 24^3 solids cost
    and widen the cluster the median falls in, and the ops around p75 are
    solids.
    """
    ops = []
    for i, kind in enumerate(KINDS_3D):
        for j, n in enumerate((16, 24, 32, 40)):
            pattern = shapes.generate(ShapeSpec(kind, (n, n, n), params_3d(kind, n, rng)))
            rugged = (i + j) % 2 == 1
            if rugged:
                pattern = shapes.ruggedize(pattern, rugged_spec(rng))
            schedule = SCHEDULES[(i + j) % 3]
            op_id = f"{kind}-{n}{'-rugged' if rugged else ''}-{schedule or 'default'}"
            ops.append(_thin_op(op_id, pattern, schedule))
    for j, n in enumerate((8, 8, 8, 8, 8, 8, 9, 9)):
        ops.append(_thin_op(f"random4d-{n}-{j}", rng.random((n,) * 4) < 0.5, None))
    return ops


def volume_nd_warmup(workdir):
    pattern = shapes.generate(ShapeSpec("sphere", (16, 16, 16), {"radius": 6.5}))
    return _thin_op("warmup", pattern, None)


# -------------------------------------------------------------- image-2d


IMAGE_KINDS = ("rectangle", "triangle", "square", "disc", "rugged-disc")
IMAGE_SIZES = (128, 224, 320)
ALGOS = {"zs": lambda p: baselines.zs_thin(p), "gh": lambda p: baselines.gh_thin(p)}


def _image_op(op_id, pattern, path, out, algo, expect):
    def run(state):
        data = formats.read_pattern(path)
        state["skeleton"], state["iterations"] = ALGOS[algo](data)
        state["row"] = metrics.evaluate(data, state["skeleton"], state["iterations"]).csv_row(algo)
        formats.write_pattern(out, state["skeleton"])
        return "ok"

    def verify(state, outcome):
        if "skeleton" not in state:
            return {"error": outcome}, []
        skeleton = state["skeleton"]
        payload = {
            "skeleton": pattern_digest(skeleton),
            "iterations": state["iterations"],
            "row": state.get("row"),
            "error": None if outcome == "ok" else outcome,
        }
        problems = []
        if np.any(skeleton & ~pattern):
            problems.append("skeleton is not a subset of the input")
        if outcome == "ok":
            if not np.array_equal(decode_file(out), skeleton):
                problems.append("written skeleton differs from the returned one")
            fields = state["row"].split(",")
            if [int(fields[5]), int(fields[6])] != [int(pattern.sum()), int(skeleton.sum())]:
                problems.append("metrics row areas are wrong")
        elif skeleton.any():
            problems.append("known failure without an empty skeleton")
        return payload, problems

    return Op(op_id, int(pattern.size), run, verify, expect)


def image_2d(rng, workdir):
    """Five 2D kinds at 128^2, 224^2 and 320^2, each stored as PBM and
    NDBIN; one op per file and algorithm, except ZS on a rugged disc."""
    ops = []
    for n in IMAGE_SIZES:
        for kind in IMAGE_KINDS:
            pattern = make_2d(kind, n, rng)[0]
            for fmt in ("pbm", "ndbin"):
                path = workdir / f"{kind}-{n}.{fmt}"
                formats.write_pattern(path, pattern)
                for algo in ALGOS:
                    if algo == "zs" and kind == "rugged-disc":
                        continue
                    expect = KNOWN_FAILURE_LIB if (algo, kind) == ("zs", "disc") else "ok"
                    out = workdir / f"{kind}-{n}.{algo}.{fmt}"
                    op_id = f"{kind}-{n}-{fmt}-{algo}"
                    ops.append(_image_op(op_id, pattern, path, out, algo, expect))
    return ops


def image_2d_warmup(workdir):
    pattern = shapes.generate(ShapeSpec("rectangle", (128, 128), {"height": 50, "width": 100}))
    path = workdir / "warmup.pbm"
    formats.write_pattern(path, pattern)
    return _image_op("warmup", pattern, path, workdir / "warmup.zs.pbm", "zs", "ok")


# ---------------------------------------------------------------- cli-2d


CLI_FILES = (("disc", 96), ("rugged-disc", 80), ("square", 64), ("rectangle", 72), ("triangle", 56))
CLI_THIN = (
    ("nd", "disc"),
    ("nd", "rugged-disc"),
    ("nd", "rectangle"),
    ("nd", "triangle"),
    ("zs", "disc"),
    ("zs", "square"),
    ("zs", "rectangle"),
    ("zs", "triangle"),
    ("gh", "disc"),
    ("gh", "rugged-disc"),
    ("gh", "square"),
    ("gh", "triangle"),
)
CLI_COMPARE = (("square", "disc"), ("rectangle", "triangle"))
CLI_METRICS = (("rectangle", "gh"), ("disc", "nd"))
# The header the CLI must print; not taken from the package, so that a change
# to it shows.
CSV_HEADER = "algorithm,s_r,m_t,n,component_delta,area_input,area_skeleton"


class CliRunner:
    """Runs one CLI call in a fresh interpreter.

    Untraced, the child runs exactly what the ``slicethin`` console script
    runs. Traced, ``traced_cli.py`` installs the span wrappers in the child
    first and writes its spans to a file, which is adopted under the
    call's ``cli.process`` span.
    """

    def __init__(self, env, workdir, tracer=None):
        self.env = env
        self.tracer = tracer
        self.spans_path = workdir / "child-spans.json"

    def __call__(self, args):
        if self.tracer is None:
            cmd = [sys.executable, "-c", "from slicethin.cli import entry; entry()", *args]
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
            return proc.returncode, proc.stdout
        cmd = [sys.executable, str(PERFBENCH / "traced_cli.py"), str(self.spans_path), *args]
        span = self.tracer.start("cli.process")
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        self.tracer.end(span, nonzero=int(proc.returncode != 0))
        with open(self.spans_path) as fh:
            self.tracer.adopt(json.load(fh), span)
        return proc.returncode, proc.stdout


def _cli_op(op_id, cli, args, cells, expect, check):
    def run(state):
        state["exit"], state["stdout"] = cli(args)
        return "ok" if state["exit"] == 0 else f"exit {state['exit']}"

    def verify(state, outcome):
        payload = {"exit": state["exit"], "stdout": state["stdout"]}
        return payload, check(state, payload)

    return Op(op_id, cells, run, verify, expect)


def _check_thin(algo, pattern, out):
    def check(state, payload):
        problems = []
        skeleton = decode_file(out)
        payload["output"] = pattern_digest(skeleton)
        if np.any(skeleton & ~pattern):
            problems.append("skeleton is not a subset of the input")
        lines = state["stdout"].splitlines()
        if state["exit"] == 0 and (len(lines) != 1 or not lines[0].startswith(f"{algo},")):
            problems.append("thin --metrics printed no single CSV row")
        return problems

    return check


def _check_gen(expected, out):
    def check(state, payload):
        generated = decode_file(out)
        payload["output"] = pattern_digest(generated)
        same = generated.shape == expected.shape and np.array_equal(generated, expected)
        return [] if same else ["gen output differs from shapes.generate"]

    return check


def _check_table(rows):
    def check(state, payload):
        lines = state["stdout"].splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return ["no CSV header"]
        if state["exit"] == 0 and len(lines) != 1 + rows:
            return [f"expected {rows} CSV rows, got {len(lines) - 1}"]
        return []

    return check


def _gen_args(shape, n, params, spec, out):
    args = ["gen", "--shape", shape, "--grid", f"{n}x{n}", "--output", str(out)]
    for name, value in params.items():
        args += [f"--{name}", str(value)]
    if spec is not None:
        args += ["--rugged", str(spec.probability), "--seed", str(spec.seed)]
    return args


def cli_2d(rng, workdir, cli):
    """Small 2D PBM files (48^2..96^2) and 20 CLI calls over them: 4 gen,
    12 thin --metrics, 2 compare and 2 metrics."""
    files = {}
    for kind, n in CLI_FILES:
        pattern, shape, params, spec = make_2d(kind, n, rng)
        path = workdir / f"{kind}.pbm"
        formats.write_pattern(path, pattern)
        files[kind] = (pattern, path, shape, params, spec)
    ops = []

    # gen: three corpus files again, and the rectangle with boundary noise.
    gens = [(kind, *files[kind]) for kind in ("disc", "rugged-disc", "triangle")]
    pattern, path, shape, params, _ = files["rectangle"]
    spec = rugged_spec(rng)
    gens.append(("rugged-rectangle", shapes.ruggedize(pattern, spec), path, shape, params, spec))
    for name, expected, _, shape, params, spec in gens:
        n = expected.shape[0]
        out = workdir / f"gen-{name}.pbm"
        args = _gen_args(shape, n, params, spec, out)
        ops.append(_cli_op(f"gen-{name}", cli, args, n * n, "ok", _check_gen(expected, out)))

    for algo, kind in CLI_THIN:
        pattern, path = files[kind][:2]
        out = workdir / f"thin-{algo}-{kind}.pbm"
        args = ["thin", "--algo", algo, "--input", str(path), "--output", str(out), "--metrics"]
        expect = KNOWN_FAILURE_CLI if (algo, kind) == ("zs", "disc") else "ok"
        check = _check_thin(algo, pattern, out)
        ops.append(_cli_op(f"thin-{algo}-{kind}", cli, args, int(pattern.size), expect, check))

    for group in CLI_COMPARE:
        args = ["compare", "--algos", "zs,gh,nd", "--input", *(str(files[k][1]) for k in group)]
        cells = sum(int(files[k][0].size) for k in group)
        expect = KNOWN_FAILURE_CLI if "disc" in group else "ok"
        rows = 3 * len(group) + (3 if len(group) > 1 else 0)
        ops.append(_cli_op(f"compare-{'+'.join(group)}", cli, args, cells, expect, _check_table(rows)))

    for kind, algo in CLI_METRICS:
        pattern, path = files[kind][:2]
        skeleton, iterations = (thinning.thin if algo == "nd" else ALGOS[algo])(pattern)
        sk_path = workdir / f"{kind}.{algo}-skeleton.pbm"
        formats.write_pattern(sk_path, skeleton)
        args = [
            "metrics", "--input", str(path), "--skeleton", str(sk_path),
            "--iterations", str(iterations), "--algorithm", algo,
        ]
        ops.append(_cli_op(f"metrics-{kind}-{algo}", cli, args, int(pattern.size), "ok", _check_table(1)))
    return ops


def cli_2d_warmup(workdir, cli):
    pattern = shapes.generate(ShapeSpec("square", (48, 48), {"side": 29}))
    path = workdir / "warmup.pbm"
    formats.write_pattern(path, pattern)
    out = workdir / "warmup.gh.pbm"
    args = ["thin", "--algo", "gh", "--input", str(path), "--output", str(out), "--metrics"]
    return _cli_op("warmup", cli, args, int(pattern.size), "ok", _check_thin("gh", pattern, out))
