import hashlib
import operator
import random
import warnings
from functools import reduce

import numpy as np
import pytest

from slicethin import shapes
from slicethin.pattern import Padded, _padded
from slicethin.shapes import (
    KINDS,
    MarginError,
    RuggedSpec,
    ShapeSpec,
    _check_margin,
    _Line,
    _uniforms,
    generate,
    generate_padded,
    ruggedize,
)

from helpers import SHAPE_DIGESTS, run_python
from oracles import ruggedize_oracle


def spec(kind, grid, **params):
    return ShapeSpec(kind=kind, grid=grid, params=params)


class TestGenerate:
    def test_square_cell_count(self):
        p = generate(spec("square", (7, 7), side=5))
        assert p.sum() == 25

    def test_disc_radius_one(self):
        # Integer points with x^2 + y^2 <= 1: center plus 4-neighbors.
        p = generate(spec("disc", (5, 5), radius=1))
        assert p.sum() == 5

    def test_sphere_radius_one(self):
        # Integer points with x^2 + y^2 + z^2 <= 1: center plus 6 face-neighbors.
        p = generate(spec("sphere", (5, 5, 5), radius=1))
        assert p.sum() == 7

    def test_rectangle(self):
        p = generate(spec("rectangle", (7, 9), height=3, width=5))
        assert p.sum() == 15

    def test_triangle_apex_row(self):
        p = generate(spec("triangle", (9, 11), base=7, height=7))
        rows = np.flatnonzero(p.any(axis=1))
        assert p[rows[0]].sum() == 1  # single-pixel apex
        assert p[rows[-1]].sum() == 7  # full base

    def test_margin_violation(self):
        with pytest.raises(MarginError):
            generate(spec("square", (7, 7), side=9))

    def test_cylinder_margin_violation(self):
        with pytest.raises(MarginError):
            generate(spec("cylinder", (9, 9, 5), radius=2, height=5))

    def test_margin_violation_at_the_high_face_only(self):
        # On an even cross-section no cell centre lies on the apex, so the
        # first z plane is empty and only the last one touches.
        p = generate(spec("elliptic-paraboloid", (8, 8, 7), radius=1, height=5))
        assert not p[:, :, 1].any() and p[:, :, -2].any()
        for make in (generate, generate_padded):
            with pytest.raises(MarginError, match="along axis 2"):
                make(spec("elliptic-paraboloid", (8, 8, 5), radius=1, height=5))

    @pytest.mark.parametrize("axis", range(3))
    def test_high_face_only_on_both_paths(self, monkeypatch, axis):
        # No kind touches only the high face of axis 0 or 1: every solid is
        # mirror-symmetric there. This one does, of the axis given.
        def solid(x):
            return reduce(operator.and_, (c >= 0 if d == axis else abs(c) <= 1
                                          for d, c in enumerate(x)))

        grid = (5, 6, 7)
        x = [c - (n - 1) / 2 for c, n in zip(np.indices(grid, dtype=float, sparse=True), grid)]
        mask = np.broadcast_to(solid(x), grid)
        touching = [(d, end) for d in range(3) for end in (0, -1) if mask.take(end, d).any()]
        assert touching == [(axis, -1)]
        monkeypatch.setitem(shapes._SHAPES, "probe", (3, (), solid))
        message = f"probe touches the grid boundary along axis {axis}; "
        for make in (generate, generate_padded):
            with pytest.raises(MarginError, match=message):
                make(spec("probe", grid))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(spec("pentagon", (7, 7), side=3))

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            generate(spec("disc", (7, 7)))

    def test_parameter_of_another_kind(self):
        with pytest.raises(ValueError, match="'disc' takes radius, not 'side'"):
            generate(spec("disc", (9, 9), radius=3, side=40))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind, params, name", [
        ("disc", {}, "radius"),
        ("triangle", {"base": 5}, "height"),
        ("cylinder", {"radius": 2}, "height"),
    ])
    def test_non_finite_parameter(self, kind, params, name, value):
        grid = (9, 9, 9) if kind == "cylinder" else (9, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            with pytest.raises(ValueError, match=f"{name!r} must be finite, got {value}"):
                generate(ShapeSpec(kind, grid, {**params, name: float(value)}))

    @pytest.mark.parametrize("kind, grid, params, digest", SHAPE_DIGESTS)
    def test_pinned_mask(self, kind, grid, params, digest):
        p = generate(ShapeSpec(kind, grid, params))
        assert p.dtype == bool and p.shape == grid
        assert hashlib.sha256(p.tobytes()).hexdigest() == digest

    def test_pinned_masks_cover_every_kind(self):
        assert sorted({row[0] for row in SHAPE_DIGESTS}) == sorted(KINDS)

    def test_wrong_grid_rank(self):
        with pytest.raises(ValueError):
            generate(spec("sphere", (7, 7), radius=2))

    @pytest.mark.parametrize("grid", [(0, 7), (7, 0), (-1, 7)])
    def test_nonpositive_grid_axis(self, grid):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            generate(spec("square", grid, side=3))

    def test_oversized_grid(self):
        # The file readers' cell cap, checked before any array is allocated.
        with pytest.raises(ValueError, match="more than"):
            generate(spec("square", (20000, 20000), side=3))

    def test_empty_solid(self):
        with pytest.raises(ValueError):
            generate(spec("hyperboloid-two-sheet", (9, 9, 9), radius=1, slope=10, height=3))

    @pytest.mark.parametrize(
        "s",
        [
            spec("square", (9, 9), side=5),
            spec("disc", (11, 11), radius=4),
            spec("sphere", (9, 9, 9), radius=3),
            spec("cylinder", (9, 9, 7), radius=3, height=5),
            spec("hyperboloid-one-sheet", (11, 11, 7), radius=2, slope=2, height=5),
            spec("elliptic-paraboloid", (13, 13, 7), radius=2, height=5),
        ],
    )
    def test_reflection_symmetry_on_odd_grids(self, s):
        p = generate(s)
        axes = range(p.ndim) if s.kind != "elliptic-paraboloid" else range(2)
        for axis in axes:
            assert np.array_equal(p, np.flip(p, axis)), (s.kind, axis)

    def test_all_kinds_produce_something(self):
        grids = {
            "square": spec("square", (9, 9), side=5),
            "rectangle": spec("rectangle", (9, 9), height=3, width=5),
            "disc": spec("disc", (9, 9), radius=3),
            "triangle": spec("triangle", (9, 9), base=5, height=5),
            "sphere": spec("sphere", (9, 9, 9), radius=3),
            "cylinder": spec("cylinder", (9, 9, 7), radius=3, height=5),
            "hyperboloid-one-sheet": spec(
                "hyperboloid-one-sheet", (11, 11, 7), radius=2, slope=2, height=5
            ),
            "hyperboloid-two-sheet": spec(
                "hyperboloid-two-sheet", (11, 11, 9), radius=1.5, slope=1.5, height=7
            ),
            "elliptic-paraboloid": spec("elliptic-paraboloid", (13, 13, 7), radius=2, height=5),
        }
        assert set(grids) == set(KINDS)
        for s in grids.values():
            assert generate(s).any()


# Grids of k = 2..5 for the margin check, with sides of 1 and 2. _relayout
# copies a face a block at a time where it has no more blocks than cells per
# block (as on axis 0), else with one strided slice per cell of a block (as
# on the last axis of a grid of more than one line).
MARGIN_GRIDS = [(1, 5), (5, 1), (2, 7), (7, 2), (3, 3), (4, 3, 5), (2, 6, 1), (1, 1, 4),
                (3, 1, 4, 2), (2, 5, 2, 3), (2, 3, 1, 4, 3), (3, 3, 3, 3, 3)]


def first_axis_touched(arr):
    """The first axis on either face of which ``arr`` has a cell, or None."""
    ends = ((arr.take(0, d), arr.take(-1, d)) for d in range(arr.ndim))
    return next((d for d, (low, high) in enumerate(ends) if low.any() or high.any()), None)


def check_like_oracle(arr):
    axis = first_axis_touched(arr)
    if axis is None:
        _check_margin("probe", arr.tobytes(), arr.shape)
    else:
        message = (f"probe touches the grid boundary along axis {axis}; "
                   "enlarge the grid or shrink the shape")
        with pytest.raises(MarginError, match=f"^{message}$"):
            _check_margin("probe", arr.tobytes(), arr.shape)
    return axis


class TestCheckMargin:
    @pytest.mark.parametrize("grid", MARGIN_GRIDS)
    def test_one_cell_on_each_face(self, grid):
        centre = [n // 2 for n in grid]
        for axis in range(len(grid)):
            for end in (0, grid[axis] - 1):
                arr = np.zeros(grid, bool)
                arr[(*centre[:axis], end, *centre[axis + 1 :])] = True
                touched = check_like_oracle(arr)
                # The centre of a side of 1 or 2 lies on its faces too.
                if all(n > 2 for d, n in enumerate(grid) if d < axis):
                    assert touched == axis
        if min(grid) > 2:
            arr = np.zeros(grid, bool)
            arr[tuple(centre)] = True
            assert check_like_oracle(arr) is None

    def test_random_grids(self):
        rng = np.random.default_rng(31)
        touched = set()
        for _ in range(400):
            grid = tuple(rng.integers(1, 7, rng.integers(2, 6)))
            arr = rng.random(grid) < rng.choice([0.02, 0.1, 0.3])
            for d in range(rng.integers(0, len(grid) + 1)):  # clear the first axes' faces
                arr[(slice(None),) * d + ([0, -1],)] = False
            if arr.any():
                touched.add(check_like_oracle(arr))
            else:
                with pytest.raises(ValueError, match="'probe' produced no foreground"):
                    _check_margin("probe", arr.tobytes(), grid)
        assert touched == {None, 0, 1, 2, 3, 4}


class TestRuggedize:
    def test_probability_zero_is_identity(self):
        p = generate(spec("disc", (11, 11), radius=4))
        assert np.array_equal(ruggedize(p, RuggedSpec(0.0, 42)), p)

    def test_probability_one_strips_boundary(self):
        p = generate(spec("square", (9, 9), side=5))
        out = ruggedize(p, RuggedSpec(1.0, 7))
        # 5x5 solid square: the outer ring (16 cells) has background
        # face-neighbors, leaving the 3x3 interior.
        assert out.sum() == 9
        assert out[3:6, 3:6].all()

    def test_deterministic(self):
        p = generate(spec("sphere", (11, 11, 11), radius=4))
        a = ruggedize(p, RuggedSpec(0.4, 123))
        b = ruggedize(p, RuggedSpec(0.4, 123))
        assert np.array_equal(a, b)

    def test_seed_changes_result(self):
        p = generate(spec("sphere", (11, 11, 11), radius=4))
        a = ruggedize(p, RuggedSpec(0.5, 1))
        b = ruggedize(p, RuggedSpec(0.5, 2))
        assert not np.array_equal(a, b)

    def test_never_adds_and_keeps_interior(self):
        from scipy import ndimage

        edge = np.random.default_rng(5).random((6, 7)) < 0.7
        edge[0] = True  # foreground on the grid face: outside counts as background
        for p in (
            generate(spec("disc", (13, 13), radius=5)),
            generate(spec("sphere", (11, 11, 11), radius=4)),
            edge,
        ):
            interior = ndimage.binary_erosion(
                p, structure=ndimage.generate_binary_structure(p.ndim, 1), border_value=0
            )
            out = ruggedize(p, RuggedSpec(0.8, 9))
            assert not (out & ~p).any()
            assert (out | ~interior).all()
            assert np.array_equal(ruggedize(p, RuggedSpec(1.0, 9)), interior)

    def test_bad_probability(self):
        p = generate(spec("disc", (9, 9), radius=3))
        with pytest.raises(ValueError):
            ruggedize(p, RuggedSpec(1.5, 0))

    def test_matches_oracle(self):
        # Random k = 2..4 patterns, foreground on the grid's faces too.
        rng = np.random.default_rng(25)
        for _ in range(150):
            shape = tuple(rng.integers(1, 8, rng.integers(2, 5)))
            p = rng.random(shape) < rng.random()
            probability = float(rng.choice([0.0, 0.3, 0.5, 1.0, rng.random()]))
            seed = int(rng.integers(1 << 40))
            expected = ruggedize_oracle(p, probability, seed)
            out = ruggedize(p, RuggedSpec(probability, seed))
            assert out.dtype == bool and np.array_equal(out, expected), (shape, seed)
            padded = _padded(p)
            out = ruggedize(padded, RuggedSpec(probability, seed))
            assert isinstance(out, Padded) and np.array_equal(out.unpadded(), expected)
            assert np.array_equal(padded.unpadded(), p)  # the input stays as it was

    def test_seed_errors_as_numpy(self):
        p = generate(spec("disc", (9, 9), radius=3))
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            ruggedize(p, RuggedSpec(0.0, -1))
        with pytest.raises(TypeError):
            ruggedize(p, RuggedSpec(0.5, 1.5))

    def test_imports_no_numpy_random(self):
        code = ("import sys, numpy; print('numpy.random' in sys.modules); "
                "from slicethin import RuggedSpec, ShapeSpec, generate, ruggedize; "
                "disc = generate(ShapeSpec('disc', (9, 9), {'radius': 3})); "
                "ruggedize(disc, RuggedSpec(0.5, 1)); print('numpy.random' in sys.modules)")
        with_numpy, after = run_python(code)
        if with_numpy == "True":
            pytest.skip("this numpy imports numpy.random when it is imported")
        assert after == "False"


class TestLine:
    """``_Line``'s operators against numpy's, elementwise, in either order."""

    @pytest.mark.parametrize(
        "run", [operator.add, operator.sub, operator.mul, operator.truediv, operator.le,
                operator.ge, operator.and_])
    def test_operators_match_numpy(self, run):
        rng = np.random.default_rng(7)
        if run is operator.and_:
            a, b, number = rng.random(9) < 0.5, rng.random(9) < 0.5, True
        else:
            a, b, number = rng.random(9) - 0.5, rng.random(9) + 0.5, 1.7
        line, other = _Line(a.tolist()), _Line(b.tolist())
        for x, y, expected in [(line, other, run(a, b)), (line, number, run(a, number)),
                               (number, line, run(number, a))]:
            assert run(x, y).values == expected.tolist(), (run, x, y)

    def test_abs(self):
        assert abs(_Line([-1.5, 0.0, 2.0])).values == [1.5, 0.0, 2.0]


class TestUniforms:
    """``_uniforms`` against the stream of numpy's ``default_rng(seed).random``."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30])
    def test_edge_seeds(self, seed):
        assert _uniforms(seed, 1000) == np.random.default_rng(seed).random(1000).tolist()

    def test_random_seeds(self):
        rng = random.Random(25)
        for _ in range(200):
            seed, n = rng.getrandbits(rng.randint(1, 200)), rng.randint(0, 1000)
            assert _uniforms(seed, n) == np.random.default_rng(seed).random(n).tolist(), seed

    def test_negative_seed_raises_as_numpy(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(-1)
        with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
            _uniforms(-1, 3)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_non_integer_seed_raises(self, seed):
        with pytest.raises(TypeError):
            _uniforms(seed, 3)
