import numpy as np
import pytest

from slicethin import baselines
from slicethin.baselines import gh_thin, zs_thin
from slicethin.pattern import DimensionError

from oracles import (
    foreground_coords,
    gh_deletable_oracle,
    gh_oracle,
    zs_deletable_oracle,
    zs_oracle,
)


def random_pattern(shape, density, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


def hline(length, pad=2):
    arr = np.zeros((2 * pad + 1, length + 2 * pad), bool)
    arr[pad, pad : pad + length] = True
    return arr


def diag(length, pad=2):
    n = length + 2 * pad
    arr = np.zeros((n, n), bool)
    for i in range(length):
        arr[pad + i, pad + i] = True
    return arr


class TestZhangSuen:
    def test_eliminates_2x2_square(self):
        arr = np.zeros((4, 4), bool)
        arr[1:3, 1:3] = True
        sk, _ = zs_thin(arr)
        assert not sk.any()

    def test_single_pixel_unchanged(self):
        arr = np.zeros((3, 3), bool)
        arr[1, 1] = True
        sk, it = zs_thin(arr)
        assert np.array_equal(sk, arr) and it == 1

    def test_horizontal_line_fixed(self):
        arr = hline(5)
        sk, _ = zs_thin(arr)
        assert np.array_equal(sk, arr)

    def test_vertical_line_fixed(self):
        arr = hline(5).T
        sk, _ = zs_thin(arr)
        assert np.array_equal(sk, arr)

    def test_4x4_square_golden(self):
        # Frozen from the scalar mark-then-sweep oracle.
        sk, it = zs_thin(np.ones((4, 4), bool))
        assert foreground_coords(sk) == {(1, 1)}
        assert it == 3

    def test_rejects_3d(self):
        with pytest.raises(DimensionError):
            zs_thin(np.zeros((3, 3, 3), bool))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_oracle(self, seed):
        p = random_pattern((15, 15), 0.5, seed)
        sk, it = zs_thin(p)
        oracle_fg, oracle_it = zs_oracle(foreground_coords(p), p.shape)
        assert foreground_coords(sk) == oracle_fg
        assert it == oracle_it

    @pytest.mark.parametrize("seed", range(4))
    def test_anti_growth_idempotent_deterministic(self, seed):
        p = random_pattern((15, 15), 0.55, seed)
        sk, _ = zs_thin(p)
        assert not (sk & ~p).any()
        again, it = zs_thin(sk)
        assert np.array_equal(again, sk) and it == 1
        assert np.array_equal(zs_thin(p)[0], sk)


class TestGuoHall:
    def test_single_pixel_unchanged(self):
        arr = np.zeros((3, 3), bool)
        arr[1, 1] = True
        sk, it = gh_thin(arr)
        assert np.array_equal(sk, arr) and it == 1

    @pytest.mark.parametrize("length", [3, 5, 9])
    def test_line_fixed_points(self, length):
        for arr in (hline(length), hline(length).T, diag(length)):
            sk, _ = gh_thin(arr)
            assert np.array_equal(sk, arr)

    def test_4x4_square_golden(self):
        # Frozen from the scalar mark-then-sweep oracle.
        sk, it = gh_thin(np.ones((4, 4), bool))
        assert foreground_coords(sk) == {(2, 1)}
        assert it == 3

    def test_rejects_3d(self):
        with pytest.raises(DimensionError):
            gh_thin(np.zeros((3, 3, 3), bool))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_oracle(self, seed):
        p = random_pattern((15, 15), 0.5, seed)
        sk, it = gh_thin(p)
        oracle_fg, oracle_it = gh_oracle(foreground_coords(p), p.shape)
        assert foreground_coords(sk) == oracle_fg
        assert it == oracle_it

    @pytest.mark.parametrize("seed", range(4))
    def test_anti_growth_idempotent_deterministic(self, seed):
        p = random_pattern((15, 15), 0.55, seed)
        sk, _ = gh_thin(p)
        assert not (sk & ~p).any()
        again, it = gh_thin(sk)
        assert np.array_equal(again, sk) and it == 1
        assert np.array_equal(gh_thin(p)[0], sk)


# P2..P9 around the centre (2, 2) of a 5x5 grid; bit i of a ring code is P(i+2).
RING = ((1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1), (1, 1))


@pytest.mark.parametrize("thin_fn, oracle", [(zs_thin, zs_oracle), (gh_thin, gh_oracle)])
def test_every_ring_code_matches_oracle(thin_fn, oracle):
    # The centre's code reaches every entry of the first sub-iteration's
    # table; test_tables_match_oracle_rule covers the second table too.
    for code in range(256):
        p = np.zeros((5, 5), bool)
        p[2, 2] = True
        for bit, c in enumerate(RING):
            p[c] = bool(code >> bit & 1)
        sk, it = thin_fn(p)
        oracle_fg, oracle_it = oracle(foreground_coords(p), p.shape)
        assert foreground_coords(sk) == oracle_fg, code
        assert it == oracle_it, code


@pytest.mark.parametrize(
    "tables, deletable",
    [(baselines._ZS_TABLES, zs_deletable_oracle), (baselines._GH_TABLES, gh_deletable_oracle)],
)
def test_tables_match_oracle_rule(tables, deletable):
    for sub, table in enumerate(tables):
        for code in range(256):
            ring = tuple(bool(code >> i & 1) for i in range(8))
            assert table[code] == deletable(ring, sub), (sub, code)
