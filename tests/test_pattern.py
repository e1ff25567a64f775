from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hyp
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from slicethin import _native
from slicethin.baselines import gh_thin, zs_thin
from slicethin.formats import export_voxels_csv, write_ndbin, write_pbm
from slicethin.metrics import evaluate, measure_mt, size_ratio
from slicethin.pattern import DimensionError, _pad, _padded, _unpad, as_pattern, component_count
from slicethin.shapes import RuggedSpec, ruggedize
from slicethin.thinning import thin

from helpers import run_subcycle
from oracles import ball, components_oracle, foreground_coords, subcycle_oracle


def random_pattern(shape, density, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


class TestAsPattern:
    def test_accepts_zero_one_ints(self):
        arr = as_pattern([[0, 1], [1, 0]])
        assert arr.dtype == bool

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            as_pattern([[0, 2], [1, 0]])

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            as_pattern([1, 0, 1])


class TestNeighborhood:
    """The in-bounds Chebyshev-1 ball that the oracles build on."""

    def test_interior_2d(self):
        assert len(ball((5, 5), (2, 2))) == 9

    def test_corner_clips(self):
        assert ball((5, 5), (0, 0)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_interior_3d(self):
        assert len(ball((5, 5, 5), (2, 2, 2))) == 27

    def test_center_is_member_and_counted(self):
        # The end-point test counts the centre: the front pixel (1, 1) with
        # one neighbour holds 2 cells of its block and stays; with two it
        # holds 3 and goes, as nothing lies ahead of it. The oracle agrees.
        assert (1, 1) in ball((3, 3), (1, 1))
        for coords, kept in [
            ({(1, 0), (1, 1)}, {(1, 0), (1, 1)}),
            ({(0, 0), (1, 0), (1, 1)}, {(0, 0), (1, 0)}),
        ]:
            arr = np.zeros((3, 3), bool)
            arr[tuple(zip(*coords))] = True
            fg = set(coords)
            subcycle_oracle(fg, arr.shape, 1, "f")
            run_subcycle(arr, 1, "f")
            assert foreground_coords(arr) == fg == kept

    @given(
        hyp.lists(hyp.integers(min_value=1, max_value=7), min_size=2, max_size=4),
        hyp.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_member_count_closed_form(self, shape, data):
        c = tuple(data.draw(hyp.integers(0, n - 1)) for n in shape)
        expected = 1
        for ci, ni in zip(c, shape):
            expected *= min(ci + 1, ni - 1) - max(ci - 1, 0) + 1
        assert len(ball(shape, c)) == expected


def label_count(arr):
    """``ndimage.label``'s count under the 3^k structure: the independent check."""
    return ndimage.label(arr, structure=np.ones((3,) * arr.ndim, bool))[1]


def assert_counts(arr, expected=None):
    """component_count against ``ndimage.label`` and, below 1,000 cells, the
    BFS oracle (and ``expected`` where given); the input is left untouched."""
    arr = np.asarray(arr)
    before = arr.copy()
    count = component_count(arr)
    assert np.array_equal(arr, before)
    assert count == label_count(arr.astype(bool))
    if arr.size < 1000:
        assert count == components_oracle(foreground_coords(arr), arr.shape)
    if expected is not None:
        assert count == expected


# The longest side drawn per k, so the BFS oracle stays quick.
_MAX_SIDE = {2: 24, 3: 9, 4: 5, 5: 3, 6: 2, 7: 2, 8: 2}


@hyp.composite
def random_patterns(draw):
    k = draw(hyp.integers(2, 8))
    shape = draw(hnp.array_shapes(min_dims=k, max_dims=k, min_side=1, max_side=_MAX_SIDE[k]))
    arr = random_pattern(shape, draw(hyp.floats(0.05, 0.9)), draw(hyp.integers(0, 2**32 - 1)))
    return np.asfortranarray(arr) if draw(hyp.booleans()) else arr


def touching_pair(step):
    """Two cells of a 2^k grid whose coordinates differ by ``step``."""
    arr = np.zeros((2,) * len(step), bool)
    arr[tuple(int(s < 0) for s in step)] = arr[tuple(int(s > 0) for s in step)] = True
    return arr


class TestConnectedComponents:
    @given(random_patterns())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_matches_label_and_oracle(self, arr):
        assert_counts(arr)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (3, 0, 4)])
    def test_zero_size(self, shape):
        assert_counts(np.zeros(shape, bool), 0)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 9), (4, 5, 6), (3,) * 6])
    def test_all_background(self, shape):
        assert_counts(np.zeros(shape, bool), 0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (7, 9), (4, 5, 6), (3,) * 8])
    def test_all_foreground(self, shape):
        assert_counts(np.ones(shape, bool), 1)

    def test_fortran_order(self):
        for seed, shape in enumerate([(13, 21), (6, 7, 8), (4, 3, 5, 4)]):
            assert_counts(np.asfortranarray(random_pattern(shape, 0.35, seed)))

    def test_int_input(self):
        assert_counts(random_pattern((17, 11), 0.4, 4).astype(int))

    def test_lines(self):
        line = np.array([[1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1]], bool)
        assert_counts(line, 4)
        assert_counts(line.T, 4)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_corner_diagonals(self, k):
        # Two cells that share only a corner, along each of the 2^(k-1)
        # diagonals of the k-cube, side by side along the last axis with a
        # background column between pairs: one component per pair.
        pairs = [touching_pair((1, *signs)) for signs in product((1, -1), repeat=k - 1)]
        gap = np.zeros((2,) * (k - 1) + (1,), bool)
        assert_counts(np.concatenate([c for pair in pairs for c in (pair, gap)], -1), len(pairs))

    @pytest.mark.parametrize("k", range(2, 5))
    def test_every_neighbour(self, k):
        # Each of the (3^k - 1) / 2 forward neighbour steps joins two cells.
        for step in product((-1, 0, 1), repeat=k):
            if step > (0,) * k:
                assert_counts(touching_pair(step), 1)

    def test_diagonals_of_identity(self):
        eye = np.eye(50, dtype=bool)
        assert_counts(eye, 1)
        assert_counts(eye[::-1], 1)

    def test_empty(self):
        assert component_count(np.zeros((5, 5), bool)) == 0

    def test_two_separated(self):
        p = np.zeros((5, 5), bool)
        p[0, 0] = p[4, 4] = True
        assert component_count(p) == 2

    def test_diagonal_adjacency(self):
        p = np.zeros((5, 5), bool)
        p[0, 0] = p[1, 1] = True
        assert component_count(p) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_count_matches_bfs_oracle_2d(self, seed):
        p = random_pattern((12, 12), 0.4, seed)
        fg = {tuple(map(int, c)) for c in np.argwhere(p)}
        assert component_count(p) == components_oracle(fg, p.shape)

    @pytest.mark.parametrize("seed", range(4))
    def test_count_matches_bfs_oracle_3d(self, seed):
        p = random_pattern((6, 6, 6), 0.3, seed)
        fg = {tuple(map(int, c)) for c in np.argwhere(p)}
        assert component_count(p) == components_oracle(fg, p.shape)

    @pytest.mark.parametrize("seed", range(5))
    def test_count_invariant_under_reflection(self, seed):
        p = random_pattern((10, 14), 0.45, seed)
        base = component_count(p)
        for axis in range(p.ndim):
            assert component_count(np.flip(p, axis)) == base


@pytest.mark.usefixtures("no_kernel")
class TestConnectedComponentsNumpy(TestConnectedComponents):
    """The component tests under the numpy counter, where the plain run used C."""


def _outcome(f, *args):
    """f's result, or the type and message of the error it raised."""
    try:
        return f(*args, 1)
    except ValueError as exc:
        return type(exc), str(exc)


class TestBytesPadding:
    """The CLI's ``Padded``, padded by bytes operations, against the one that
    a library call pads from an array with numpy."""

    @given(random_patterns())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy(self, arr):
        bits = bytearray(arr.astype(np.uint8).tobytes())
        padded = _pad(bits, arr.shape)
        expected = _padded(arr)
        assert padded.shape == expected.shape and padded.buf == expected.buf
        assert _unpad(padded) == bits
        assert np.array_equal(np.asarray(padded), arr)  # numpy sees the pattern
        # A Padded in gives a Padded out, equal to the array's result.
        assert component_count(padded) == component_count(arr)
        for run in (thin, zs_thin, gh_thin)[: 1 if arr.ndim > 2 else 3]:
            (skeleton, iterations), (want, want_iterations) = run(padded), run(arr)
            assert np.array_equal(skeleton.unpadded(), want) and iterations == want_iterations
            assert _outcome(evaluate, padded, skeleton) == _outcome(evaluate, arr, want)
        assert padded.buf == expected.buf  # the input is left untouched

    @pytest.mark.parametrize("shape", [(10**5, 1), (1, 10**5), (3, 10**4, 1), (1, 7, 1, 10**4)])
    def test_long_and_short_lines(self, shape):
        # Many short lines take one strided copy per byte of a line, few long
        # ones one copy per line.
        arr = random_pattern(shape, 0.5, 1)
        bits = bytearray(arr.astype(np.uint8).tobytes())
        padded = _pad(bits, shape)
        assert padded.buf == _padded(arr).buf
        assert _unpad(padded) == bits


# Every public function that takes a pattern, called on one.
_TAKES_PATTERN = {
    "as_pattern": as_pattern,
    "thin": thin,
    "zs_thin": zs_thin,
    "gh_thin": gh_thin,
    "component_count": component_count,
    "evaluate": lambda p: evaluate(p, p, 1),
    "measure_mt": measure_mt,
    "size_ratio": lambda p: size_ratio(p, p),
    "ruggedize": lambda p: ruggedize(p, RuggedSpec(0.5, 0)),
    "write_pbm": write_pbm,
    "write_ndbin": write_ndbin,
    "export_voxels_csv": export_voxels_csv,
}


@pytest.mark.parametrize("k", [9, 13])
@pytest.mark.parametrize("name", sorted(_TAKES_PATTERN))
def test_above_max_dims_raises(monkeypatch, name, k):
    # as_pattern caps k for every function before any kernel is asked for:
    # a one-cell pattern would otherwise have 3^k neighbours to look at.
    def load():
        raise AssertionError(f"a kernel was asked for at k = {k}")

    monkeypatch.setattr(_native, "load", load)
    with pytest.raises(DimensionError, match=f"got {k}"):
        _TAKES_PATTERN[name](np.ones((1,) * k, bool))
