import contextlib
import io
import math
import os
import random
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp
from hypothesis.extra import numpy as hnp

from slicethin import _native, baselines
from slicethin.cli import _UsageError, build_parser, main
from slicethin.formats import read_pattern, write_ndbin, write_pbm, write_pattern
from slicethin.metrics import CSV_HEADER, UndefinedMetricError, evaluate
from slicethin.shapes import _SHAPES, KINDS, MarginError, ShapeSpec, generate

from helpers import SHAPE_DIGESTS
from oracles import ruggedize_oracle


@pytest.fixture
def square7(tmp_path):
    path = tmp_path / "sq7.pbm"
    write_pattern(path, np.ones((7, 7), bool))
    return path


@pytest.fixture
def cube(tmp_path):
    path = tmp_path / "cube.ndbin"
    write_pattern(path, np.ones((5, 5, 5), bool))
    return path


class TestThinCommand:
    def test_nd_pbm(self, square7, tmp_path, capsys):
        out = tmp_path / "sk.pbm"
        assert main(["thin", "--algo", "nd", "--input", str(square7), "--output", str(out)]) == 0
        assert out.exists()
        sk = read_pattern(out)
        assert sk.any() and sk.sum() < 49

    def test_nd_schedule_vertical_centerline(self, square7, tmp_path):
        out = tmp_path / "sk.pbm"
        code = main(
            ["thin", "--algo", "nd", "--schedule", "1fb",
             "--input", str(square7), "--output", str(out)]
        )
        assert code == 0
        expected = np.zeros((7, 7), bool)
        expected[:, 3] = True
        assert np.array_equal(read_pattern(out), expected)

    def test_zs_on_3d_fails(self, cube, tmp_path):
        out = tmp_path / "o.ndbin"
        assert main(["thin", "--algo", "zs", "--input", str(cube), "--output", str(out)]) == 1

    def test_bad_schedule(self, square7, tmp_path):
        out = tmp_path / "o.pbm"
        code = main(
            ["thin", "--algo", "nd", "--schedule", "nope",
             "--input", str(square7), "--output", str(out)]
        )
        assert code == 2

    def test_schedule_with_baseline_rejected(self, square7, tmp_path):
        out = tmp_path / "o.pbm"
        code = main(
            ["thin", "--algo", "zs", "--schedule", "1fb",
             "--input", str(square7), "--output", str(out)]
        )
        assert code == 2

    def test_missing_input(self, square7, tmp_path, capsys):
        # A missing file, and a regular file used as a directory on either side.
        for src, dst in [
            (tmp_path / "no.pbm", tmp_path / "o.pbm"),
            (square7 / "x.pbm", tmp_path / "o.pbm"),
            (square7, square7 / "o.pbm"),
        ]:
            assert main(["thin", "--algo", "nd", "--input", str(src), "--output", str(dst)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_corrupt_input(self, tmp_path):
        bad = tmp_path / "bad.pbm"
        bad.write_bytes(b"P5\njunk")
        assert main(["thin", "--algo", "nd", "--input", str(bad),
                     "--output", str(tmp_path / "o.pbm")]) == 2

    def test_metrics_row(self, square7, tmp_path, capsys):
        out = tmp_path / "sk.pbm"
        code = main(["thin", "--algo", "gh", "--input", str(square7),
                     "--output", str(out), "--metrics"])
        assert code == 0
        row = capsys.readouterr().out.strip()
        assert row.startswith("gh,")
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_output_matches_library(self, square7, tmp_path):
        from slicethin.thinning import thin

        out = tmp_path / "sk.pbm"
        main(["thin", "--algo", "nd", "--input", str(square7), "--output", str(out)])
        assert np.array_equal(read_pattern(out), thin(np.ones((7, 7), bool))[0])

    def test_deterministic_outputs(self, square7, tmp_path, capsys):
        out1, out2 = tmp_path / "a.pbm", tmp_path / "b.pbm"
        main(["thin", "--algo", "nd", "--input", str(square7), "--output", str(out1), "--metrics"])
        first = capsys.readouterr().out
        main(["thin", "--algo", "nd", "--input", str(square7), "--output", str(out2), "--metrics"])
        assert capsys.readouterr().out == first
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("algo", ["nd", "zs", "gh"])
    def test_unevenly_spaced_ndbin_without_numpy(self, monkeypatch, tmp_path, capsys, algo):
        # A valid NDBIN file whose bits sit at odd and even offsets alike
        # thins with numpy blocked, exactly as the writer's own file does.
        if _native.load() is None:
            pytest.skip("the twins import numpy")
        arr = np.zeros((7, 9), bool)
        arr[1:6, 1:8] = True
        even = tmp_path / "even.ndbin"
        write_pattern(even, arr)
        uneven = tmp_path / "uneven.ndbin"
        *head, body = even.read_bytes().split(b"\n", 3)
        uneven.write_bytes(b"\n".join([*head, body.replace(b" ", b"  ", 5)]))
        outputs = []
        for path in (even, uneven):
            out = tmp_path / f"sk-{path.stem}.ndbin"
            with monkeypatch.context() as patch:
                patch.setitem(sys.modules, "numpy", None)  # every import of numpy now fails
                code = main(["thin", "--algo", algo, "--input", str(path),
                             "--output", str(out), "--metrics"])
            outputs.append((code, capsys.readouterr(), out.read_bytes()))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]


class TestCompareCommand:
    def test_one_input_three_algos(self, square7, capsys):
        assert main(["compare", "--input", str(square7), "--algos", "zs,gh,nd"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_two_inputs_one_algo_appends_average(self, square7, tmp_path, capsys):
        other = tmp_path / "disc.pbm"
        arr = np.zeros((9, 9), bool)
        arr[2:7, 2:7] = True
        write_pattern(other, arr)
        code = main(["compare", "--input", str(square7), str(other), "--algos", "zs"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + 2 rows + average
        assert lines[-1].startswith("zs-avg,")

    def test_average_over_2d_and_3d(self, square7, cube, capsys):
        # m_t is averaged over the 2D rows only; the counts are float means.
        assert main(["compare", "--input", str(square7), str(cube), "--algos", "nd"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "nd-avg,0.0426122449,1,3.5,0,87,3"

    def test_baseline_on_3d_prints_no_table(self, square7, cube, capsys):
        # Every input is checked before the header, so no partial table.
        code = main(["compare", "--input", str(square7), str(cube), "--algos", "nd,zs"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_zero_inputs_is_usage_error(self):
        assert main(["compare", "--input"]) == 2

    def test_unknown_algo(self, square7):
        assert main(["compare", "--input", str(square7), "--algos", "zs,xx"]) == 2


class TestMetricsCommand:
    def test_evaluates_existing_skeleton(self, square7, tmp_path, capsys):
        sk = tmp_path / "sk.pbm"
        main(["thin", "--algo", "nd", "--input", str(square7), "--output", str(sk)])
        capsys.readouterr()
        code = main(["metrics", "--input", str(square7), "--skeleton", str(sk),
                     "--iterations", "8", "--algorithm", "nd"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("nd,")
        assert lines[1].split(",")[3] == "8"

    def test_empty_skeleton_of_another_shape(self, square7, tmp_path, capsys):
        # The empty 2D skeleton is reported before the shape mismatch.
        sk = tmp_path / "empty.pbm"
        write_pattern(sk, np.zeros((7, 8), bool))
        message = "m_t is undefined for an empty skeleton"
        with pytest.raises(UndefinedMetricError, match=message):
            evaluate(read_pattern(square7), read_pattern(sk), 0)
        assert main(["metrics", "--input", str(square7), "--skeleton", str(sk)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


# The kernels that malloc their own lists or stack, and the message of the
# MemoryError that each caller raises where they find no memory.
NO_MEMORY = {
    "slicethin_thin": "no memory for the run lists of the nd kernel",
    "slicethin_sweep": "no memory for the contour list of the ZS/GH driver",
    "slicethin_components": "no memory for the stack of the component count",
}


@pytest.fixture
def failing_kernels(monkeypatch):
    """The library with every kernel that mallocs returning -1, as where
    malloc fails; the others, which read, write and count, stay real."""
    lib = _native.load()
    if lib is None:
        pytest.skip("no C kernel loads here")
    fake = types.SimpleNamespace(**{name: getattr(lib, name) for name in _native._ENTRY_POINTS})
    for name in NO_MEMORY:
        setattr(fake, name, lambda *args: -1)
    monkeypatch.setattr(_native, "load", lambda: fake)


@pytest.mark.usefixtures("failing_kernels")
class TestFailedAllocation:
    """A kernel that finds no memory is an algorithm error: one error line
    and exit 1, no traceback."""

    @pytest.mark.parametrize("algo, kernel", [("nd", "slicethin_thin"), ("zs", "slicethin_sweep"),
                                              ("gh", "slicethin_sweep")])
    def test_thin(self, square7, tmp_path, capsys, algo, kernel):
        out = tmp_path / "sk.pbm"
        assert main(["thin", "--algo", algo, "--input", str(square7), "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {NO_MEMORY[kernel]}\n")
        assert not out.exists()

    def test_metrics_component_count(self, square7, capsys):
        assert main(["metrics", "--input", str(square7), "--skeleton", str(square7)]) == 1
        assert capsys.readouterr() == ("", f"error: {NO_MEMORY['slicethin_components']}\n")


def test_memory_error_without_message(monkeypatch, square7, tmp_path, capsys):
    # Python's own MemoryError, as from a bytearray too large, has no message.
    def no_memory(pattern):
        raise MemoryError

    monkeypatch.setattr(baselines, "gh_thin", no_memory)
    out = tmp_path / "sk.pbm"
    assert main(["thin", "--algo", "gh", "--input", str(square7), "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


class TestGenCommand:
    @pytest.mark.parametrize("kind, grid, params", [row[:3] for row in SHAPE_DIGESTS])
    def test_every_kind_matches_library(self, tmp_path, kind, grid, params):
        out = tmp_path / ("s.pbm" if len(grid) == 2 else "s.ndbin")
        argv = ["gen", "--shape", kind, "--grid", "x".join(map(str, grid)), "--output", str(out)]
        for name, value in params.items():
            argv += [f"--{name}", str(value)]
        assert main(argv) == 0
        assert np.array_equal(read_pattern(out), generate(ShapeSpec(kind, grid, params)))

    def test_3d_pattern_to_pbm_is_format_error(self, cube, tmp_path, capsys):
        out = tmp_path / "o.pbm"
        assert main(["thin", "--algo", "nd", "--input", str(cube), "--output", str(out)]) == 2
        assert main(["gen", "--shape", "sphere", "--radius", "2", "--grid", "7x7x7",
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err.count("error: PBM holds 2D patterns only") == 2
        assert not out.exists()

    def test_square(self, tmp_path):
        out = tmp_path / "s.pbm"
        code = main(["gen", "--shape", "square", "--side", "5",
                     "--grid", "7x7", "--output", str(out)])
        assert code == 0
        assert read_pattern(out).sum() == 25

    def test_sphere(self, tmp_path):
        out = tmp_path / "s.ndbin"
        code = main(["gen", "--shape", "sphere", "--radius", "1",
                     "--grid", "5x5x5", "--output", str(out)])
        assert code == 0
        assert read_pattern(out).sum() == 7

    def test_margin_violation(self, tmp_path):
        code = main(["gen", "--shape", "square", "--side", "9",
                     "--grid", "7x7", "--output", str(tmp_path / "s.pbm")])
        assert code == 1

    # int() takes "1_0", "+7" and "٧"; a grid takes ASCII digits only, at
    # least two of them, none zero.
    @pytest.mark.parametrize("grid", ["7by7", "1_0x5", "+7x7", "٧x٧", "7", "0x7"])
    def test_bad_grid(self, tmp_path, capsys, grid):
        out = tmp_path / "s.pbm"
        code = main(["gen", "--shape", "square", "--side", "3",
                     "--grid", grid, "--output", str(out)])
        assert code == 2
        assert "bad grid" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_parameter(self, tmp_path):
        code = main(["gen", "--shape", "disc", "--grid", "9x9",
                     "--output", str(tmp_path / "s.pbm")])
        assert code == 2

    def test_rugged_deterministic(self, tmp_path):
        args = ["gen", "--shape", "disc", "--radius", "4", "--grid", "11x11",
                "--rugged", "0.5", "--seed", "3"]
        a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_grid_is_usage_error(self, tmp_path, capsys):
        # 4e8 cells: rejected before the grid is allocated.
        code = main(["gen", "--shape", "square", "--side", "3",
                     "--grid", "20000x20000", "--output", str(tmp_path / "s.pbm")])
        assert code == 2
        assert "more than" in capsys.readouterr().err

    def test_unknown_shape_is_usage_error(self, tmp_path):
        code = main(["gen", "--shape", "blob", "--grid", "7x7",
                     "--output", str(tmp_path / "s.pbm")])
        assert code == 2


class TestOutputRewrite:
    """An --output that already exists is rewritten in place, then cut to length."""

    @pytest.mark.parametrize("algo", ["nd", "zs", "gh"])
    def test_thin_over_a_longer_file(self, square7, tmp_path, algo):
        fresh, old = tmp_path / "fresh.pbm", tmp_path / "old.pbm"
        write_pattern(old, np.ones((40, 40), bool))
        for out in (fresh, old):
            argv = ["thin", "--algo", algo, "--input", str(square7), "--output", str(out)]
            assert main(argv) == 0
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("shape, name", [
        (["square", "--side", "5", "--grid", "13x13"], "s.pbm"),
        (["sphere", "--radius", "2", "--grid", "7x7x7"], "s.ndbin"),
    ])
    def test_gen_over_a_longer_file(self, tmp_path, shape, name):
        fresh, old = tmp_path / "fresh" / name, tmp_path / name
        fresh.parent.mkdir()
        old.write_bytes(b"#" * 10_000)
        for out in (fresh, old):
            assert main(["gen", "--shape", *shape, "--output", str(out)]) == 0
        assert old.read_bytes() == fresh.read_bytes()

    def test_thin_in_place(self, tmp_path):
        src, out = tmp_path / "a.pbm", tmp_path / "sk.pbm"
        write_pattern(src, np.ones((9, 9), bool))
        assert main(["thin", "--algo", "gh", "--input", str(src), "--output", str(out)]) == 0
        assert main(["thin", "--algo", "gh", "--input", str(src), "--output", str(src)]) == 0
        assert src.read_bytes() == out.read_bytes()

    @pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                        reason="needs /dev/full and /proc/self/fd")
    def test_full_device_is_one_error_line(self, square7, tmp_path, capsys):
        out = tmp_path / "full.pbm"
        out.symlink_to("/dev/full")
        open_fds = len(os.listdir("/proc/self/fd"))
        for argv in (["thin", "--algo", "nd", "--input", str(square7)],
                     ["gen", "--shape", "square", "--side", "3", "--grid", "5x5"]):
            assert main(argv + ["--output", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: [Errno 28] ") and err.count("\n") == 1
        assert len(os.listdir("/proc/self/fd")) == open_fds


# ---------------------------------------------------------------- gen without numpy


def _gen_expected(kind, grid, params, rugged, seed, pbm):
    """What gen writes, or its exit code and stderr: the library's numpy
    solid, the oracle's noise and the array writer."""
    try:
        pattern = generate(ShapeSpec(kind, grid, params))
        if rugged is not None:
            pattern = ruggedize_oracle(pattern, rugged, seed)
        return 0, "", (write_pbm if pbm else write_ndbin)(pattern)
    except ValueError as exc:  # MarginError, a bad spec, a 3D pattern as PBM
        return (1 if isinstance(exc, MarginError) else 2), f"error: {exc}\n", None


def _random_gen_case(kind, rng):
    """A grid, parameters, noise and output format for ``kind``, drawn to hit
    solids that fit, touch the faces or come out empty, bad parameters and
    seeds, and 3D patterns written as PBM."""
    ndim, names, _ = _SHAPES[kind]
    if rng.random() < 0.05:
        ndim = 5 - ndim  # the wrong rank
    grid = tuple(rng.randint(1, 17 if ndim == 2 else 11) for _ in range(ndim))
    size = max(grid)
    params = {}
    for name in names:
        scale = {"radius": 0.5, "slope": 0.4}.get(name, 1.0)
        params[name] = round(rng.uniform(0.1, 1.1) * scale * size, rng.choice([0, 1, 2, 6]))
    if kind == "elliptic-paraboloid":  # widest at radius * sqrt(height - 1)
        params["radius"] /= math.sqrt(max(params["height"] - 1, 1))
    if rng.random() < 0.1:
        bad = rng.choice([0.0, -1.5, math.nan, math.inf, None, "other"])
        name = rng.choice(names)
        if bad is None:
            del params[name]
        elif bad == "other":
            params[next(n for n in ("side", "radius") if n not in names)] = 3.0
        else:
            params[name] = bad
    rugged = seed = None
    if rng.random() < 0.6:
        rugged = rng.choice([0.0, 0.2, 0.5, 1.0, rng.random(), 1.5])
        seed = rng.choice([0, rng.getrandbits(31), rng.getrandbits(100), -1])
    pbm = ndim == 2 if rng.random() < 0.9 else ndim == 3
    return grid, params, rugged, seed, pbm


def _check_gen(monkeypatch, capsys, tmp_path, kind, grid, params, rugged, seed, pbm):
    """Run gen with numpy blocked and compare it with ``_gen_expected``;
    returns its exit code."""
    out = tmp_path / ("g.pbm" if pbm else "g.ndbin")
    out.unlink(missing_ok=True)
    argv = ["gen", "--shape", kind, "--grid", "x".join(map(str, grid)), "--output", str(out)]
    argv += [f"--{name}={value!r}" for name, value in params.items()]
    if rugged is not None:
        argv += [f"--rugged={rugged!r}", f"--seed={seed}"]
    with monkeypatch.context() as patch:
        patch.setitem(sys.modules, "numpy", None)  # every import of numpy now fails
        code = main(argv)
    expected_code, expected_err, data = _gen_expected(kind, grid, params, rugged, seed, pbm)
    assert (code, capsys.readouterr().err) == (expected_code, expected_err)
    if data is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == data
    return code


@pytest.mark.parametrize("kind", KINDS)
def test_gen_without_numpy_matches_library(monkeypatch, capsys, tmp_path, kind):
    """gen, with numpy blocked, on random grids and parameters, with and
    without noise: the library's bytes, or its error."""
    rng = random.Random(kind)
    codes = [_check_gen(monkeypatch, capsys, tmp_path, kind, *_random_gen_case(kind, rng))
             for _ in range(40)]
    assert set(codes) == {0, 1, 2}


@pytest.mark.parametrize(
    "kind, grid, params, rugged, seed, pbm",
    [
        ("square", (7, 7), {"side": 7}, None, None, True),
        ("cylinder", (9, 9, 5), {"radius": 2, "height": 5}, 0.5, 3, False),
        ("hyperboloid-two-sheet", (9, 9, 9), {"radius": 1, "slope": 10, "height": 3}, None,
         None, False),
        ("disc", (9, 9), {"radius": 0.0}, None, None, True),
        ("triangle", (9, 9), {"base": 5, "height": 1.5}, None, None, True),
        ("disc", (9, 9), {"radius": 3.0}, 0.2, -1, True),
        ("sphere", (7, 7, 7), {"radius": 2.0}, 0.3, 11, True),
        ("square", (20000, 20000), {"side": 3}, None, None, True),
        # Two intervals of the last axis on the central lines.
        ("hyperboloid-two-sheet", (11, 11, 13), {"radius": 1.5, "slope": 1.5, "height": 11},
         0.4, 2**70, False),
        ("sphere", (40, 40, 40), {"radius": 18.3}, 0.2, 12345, False),
        ("disc", (256, 256), {"radius": 120.0}, 0.2, 7, True),
    ],
    ids=["margin", "margin-3d", "empty", "zero-radius", "short-triangle", "negative-seed",
         "3d-as-pbm", "oversized", "two-sheet", "large-sphere", "large-disc"],
)
def test_gen_without_numpy_cases(monkeypatch, capsys, tmp_path, kind, grid, params, rugged,
                                 seed, pbm):
    _check_gen(monkeypatch, capsys, tmp_path, kind, grid, params, rugged, seed, pbm)


def test_two_sheet_line_has_two_intervals():
    p = generate(ShapeSpec("hyperboloid-two-sheet", (11, 11, 13),
                           {"radius": 1.5, "slope": 1.5, "height": 11}))
    line = p[5, 5].astype(np.int8)
    assert np.count_nonzero(np.diff(line) == 1) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--input", "{sq}", "--algos", ","], "no algorithm"),
        (["compare", "--input", "{sq}", "--algos", "zs,xx"], "unknown algorithm"),
        (["metrics", "--input", "{sq}", "--skeleton", "{sq}", "--iterations", "-4"],
         "--iterations must be >= 0"),
        (["thin", "--algo", "zs", "--schedule", "1fb", "--input", "{sq}", "--output", "{out}"],
         "--schedule applies to --algo nd only"),
        (["gen", "--shape", "disc", "--radius", "0", "--grid", "9x9", "--output", "{out}"],
         "'radius' must be positive"),
        (["gen", "--shape", "disc", "--radius", "3", "--side", "40", "--grid", "9x9",
          "--output", "{out}"], "'disc' takes radius, not 'side'"),
        (["gen", "--shape", "disc", "--radius", "3", "--grid", "9x9", "--rugged", "1.5",
          "--output", "{out}"], "probability must be in"),
        (["gen", "--shape", "disc", "--radius", "3", "--grid", "9x9", "--rugged", "nan",
          "--output", "{out}"], "probability must be in"),
        (["gen", "--shape", "disc", "--radius", "3", "--grid", "9x9", "--rugged", "0.2",
          "--seed", "-1", "--output", "{out}"], "non-negative"),
        (["gen", "--shape", "disc", "--radius", "nan", "--grid", "9x9", "--output", "{out}"],
         "'radius' must be finite, got nan"),
        (["gen", "--shape", "triangle", "--base", "5", "--height", "inf", "--grid", "9x9",
          "--output", "{out}"], "'height' must be finite, got inf"),
        (["gen", "--shape", "disc", "--radius=-inf", "--grid", "9x9", "--output", "{out}"],
         "'radius' must be finite, got -inf"),
    ],
    ids=["no-algos", "unknown-algo", "negative-iterations", "schedule-with-zs", "zero-radius",
         "parameter-of-another-kind", "rugged-above-one", "rugged-nan", "negative-seed",
         "radius-nan", "height-inf", "radius-minus-inf"],
)
def test_usage_error(square7, tmp_path, capsys, argv, message):
    """Bad arguments raise the CLI's usage error: exit 2, an error line and no output."""
    argv = [word.format(sq=square7, out=tmp_path / "o.pbm") for word in argv]
    args = build_parser().parse_args(argv)
    with pytest.raises(_UsageError, match=message):
        args.func(args)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert not (tmp_path / "o.pbm").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--shape", "disc", "--radius", "٣", "--grid", "9x9"],
        ["gen", "--shape", "disc", "--radius", "1_0", "--grid", "29x29"],
        ["gen", "--shape", "disc", "--radius", " 3", "--grid", "9x9"],
        ["gen", "--shape", "square", "--side", "５", "--grid", "9x9"],
        ["gen", "--shape", "disc", "--radius", "3", "--grid", "9x9", "--rugged", "٠.٢"],
        ["gen", "--shape", "disc", "--radius", "3", "--grid", "9x9", "--rugged", "0.2",
         "--seed", "١_٢"],
        ["gen", "--shape", "disc", "--radius", "3", "--grid", "9x9", "--rugged", "0.2",
         "--seed", "1_2"],
        ["metrics", "--input", "{sq}", "--skeleton", "{sq}", "--iterations", "٣"],
    ],
    ids=["radius-arabic", "radius-underscore", "radius-space", "side-fullwidth",
         "rugged-arabic", "seed-arabic", "seed-underscore", "iterations-arabic"],
)
def test_numeric_flags_take_ascii_digits_only(square7, tmp_path, capsys, argv):
    """int() and float() would take these: the flags exit 2 and write nothing."""
    out = tmp_path / "o.pbm"
    argv = [word.format(sq=square7) for word in argv]
    if argv[0] == "gen":
        argv += ["--output", str(out)]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "error: argument --" in err
    assert not out.exists()


# ---------------------------------------------------------------- fuzzing

_PIECES = (b"0", b"1", b"10", b" ", b"\n", b"\t", b"#", b"#c\n", b"\xa0", b"x", b"2", b"9")


@hyp.composite
def _file_bytes(draw, pbm):
    """A valid file, a mutated one, or random bytes after a plausible header."""
    kind = draw(hyp.sampled_from(["valid", "mutated", "random"]))
    if kind == "random":
        head = draw(hyp.sampled_from([b"", b"P1 ", b"NDBIN ", b"P1 3 3 ", b"NDBIN 3 2 2 2 "]))
        return head + b"".join(draw(hyp.lists(hyp.sampled_from(_PIECES), max_size=12)))
    shapes = hnp.array_shapes(min_dims=2, max_dims=2 if pbm else 3, max_side=5)
    arr = draw(hnp.arrays(bool, shapes))
    data = write_pbm(arr) if pbm else write_ndbin(arr)
    if kind == "mutated":
        at = draw(hyp.integers(0, len(data)))
        cut = draw(hyp.integers(0, 2))
        data = data[:at] + draw(hyp.sampled_from(_PIECES)) + data[at + cut :]
    return data


_NAMES = ("a.pbm", "b.ndbin", "c.pbm", "d.dat")
_OUTS = ("o.pbm", "o.ndbin", "o.dat")
_GEN = (
    ("--shape", "square", "--side", "3", "--grid", "7x7"),
    ("--shape", "disc", "--radius", "2.5", "--grid", "9x9"),
    ("--shape", "triangle", "--base", "5", "--height", "3", "--grid", "9x9"),
    ("--shape", "sphere", "--radius", "1", "--grid", "5x5x5"),
)
_NOISE = ("--nope", "--help", "--input", "--metrics", "3", "x", "thin", "")


@hyp.composite
def _argv(draw):
    """One command with good and bad values, then a few stray words."""
    def pick(*options):
        return draw(hyp.sampled_from(options))

    def maybe(*words):
        return list(words) if draw(hyp.booleans()) else []

    command = pick("thin", "compare", "metrics", "gen")
    if command == "thin":
        argv = ["thin", "--algo", pick("nd", "zs", "gh"), "--input", pick(*_NAMES),
                "--output", pick(*_OUTS), *maybe("--schedule", pick("1fb", "0f;1b", "2fb", "x")),
                *maybe("--metrics")]
    elif command == "compare":
        inputs = draw(hyp.lists(hyp.sampled_from(_NAMES), min_size=1, max_size=3))
        argv = ["compare", "--input", *inputs,
                *maybe("--algos", pick("nd", "zs,gh", "nd,zs", "xx"))]
    elif command == "metrics":
        argv = ["metrics", "--input", pick(*_NAMES), "--skeleton", pick(*_NAMES),
                *maybe("--iterations", pick("3", "-3", "x"))]
    else:  # a repeated flag overrides the valid one before it
        argv = ["gen", *pick(*_GEN),
                *maybe(pick("--side", "--radius", "--grid", "--shape"),
                       pick("3", "0", "-1", "nan", "inf", "x", "0x3", "7x7", "blob")),
                *maybe("--rugged", pick("0.5", "2", "nan"), "--seed", pick("3", "-1")),
                "--output", pick(*_OUTS)]
    for _ in range(draw(hyp.integers(0, 2))):
        argv.insert(draw(hyp.integers(0, len(argv))), pick(*_NOISE))
    return argv


class TestCliFuzz:
    @given(hyp.tuples(*(_file_bytes(name.endswith(".pbm")) for name in _NAMES)), _argv())
    @settings(max_examples=200, deadline=None)
    def test_exit_code_and_no_traceback(self, files, argv):
        """Commands over random and mutated files, plus bad flags, exit 0, 1 or 2
        and never print a traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in zip(_NAMES, files):
                Path(tmp, name).write_bytes(data)
            argv = [str(Path(tmp, w)) if w in _NAMES + _OUTS else w for w in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
