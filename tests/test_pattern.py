import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from slicethin.pattern import DimensionError, as_pattern, component_count
from slicethin.thinning import thin_subcycle

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
            thin_subcycle(arr, 1, "f")
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


class TestConnectedComponents:
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
