import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hyp
from hypothesis.extra import numpy as hnp

from slicethin import _native, baselines
from slicethin.baselines import gh_thin, zs_thin
from slicethin.pattern import DimensionError, _padded

from oracles import foreground_coords, gh_deletable_oracle, gh_oracle, zs_deletable_oracle, zs_oracle


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


@pytest.mark.usefixtures("no_kernel")
class TestZhangSuenNumpy(TestZhangSuen):
    """The Zhang-Suen tests under the numpy driver, where the plain run used C."""


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


@pytest.mark.usefixtures("no_kernel")
class TestGuoHallNumpy(TestGuoHall):
    """The Guo-Hall tests under the numpy driver, where the plain run used C."""


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


@pytest.mark.usefixtures("no_kernel")
@pytest.mark.parametrize("thin_fn, oracle", [(zs_thin, zs_oracle), (gh_thin, gh_oracle)])
def test_every_ring_code_matches_oracle_numpy(thin_fn, oracle):
    test_every_ring_code_matches_oracle(thin_fn, oracle)


@pytest.mark.parametrize(
    "tables, deletable",
    [(baselines._ZS_TABLES, zs_deletable_oracle), (baselines._GH_TABLES, gh_deletable_oracle)],
)
def test_tables_match_oracle_rule(tables, deletable):
    for sub, table in enumerate(tables):
        for code in range(256):
            ring = tuple(bool(code >> i & 1) for i in range(8))
            assert table[code] == deletable(ring, sub), (sub, code)


@pytest.mark.parametrize(
    "tables, rule",
    [
        pytest.param(baselines._ZS_TABLES, zs_deletable_oracle, id="tables0-_zs_deletable"),
        pytest.param(baselines._GH_TABLES, gh_deletable_oracle, id="tables1-_gh_deletable"),
    ],
)
def test_table_literals_match_rules(tables, rule):
    # The literals, rebuilt from the rules: a byte per neighbour code, a table
    # per sub-iteration.
    rings = [[bool(code >> i & 1) for i in range(8)] for code in range(256)]
    assert tables == tuple(bytes(rule(ring, sub) for ring in rings) for sub in (0, 1))


RULES = {"zs": (zs_thin, zs_oracle), "gh": (gh_thin, gh_oracle)}
TABLES = {"zs": baselines._ZS_TABLES, "gh": baselines._GH_TABLES}


@pytest.mark.parametrize("rule", sorted(TABLES))
def test_tables_keep_pixels_with_foreground_edges(rule):
    # The C sweep lists only pixels with a background edge neighbour (P2, P4,
    # P6 or P8), so no entry may delete a pixel whose four are foreground.
    edges = 0b01010101
    assert not any(t[code] for t in TABLES[rule] for code in range(256) if code & edges == edges)

# TestDriverDifferentialNumpy runs these tests again from a subclass, which
# Hypothesis sees as a second executor; both drivers must pass the same
# examples, so sharing them is what is wanted.
_DIFFERENTIAL = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.differing_executors]
)


def assert_matches_oracle(rule, pattern):
    """The driver's result against the scalar oracle, and the input untouched."""
    thin_fn, oracle = RULES[rule]
    before = np.array(pattern, copy=True)
    sk, it = thin_fn(pattern)
    assert sk.dtype == bool and sk.shape == np.shape(pattern) and sk.flags.c_contiguous
    assert (foreground_coords(sk), it) == oracle(foreground_coords(before), before.shape)
    assert np.array_equal(pattern, before)
    return sk, it


class TestDriverDifferential:
    @given(
        hyp.sampled_from(sorted(RULES)),
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        hyp.floats(0.1, 0.95),
        hyp.integers(0, 2**32 - 1),
    )
    @_DIFFERENTIAL
    def test_matches_oracle(self, rule, shape, density, seed):
        """Random patterns up to 40 x 40: skeleton and iteration count."""
        assert_matches_oracle(rule, random_pattern(shape, density, seed))

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_zero_size(self, rule):
        assert assert_matches_oracle(rule, np.zeros((0, 5), bool))[1] == 1

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_all_background(self, rule):
        sk, it = assert_matches_oracle(rule, np.zeros((7, 9), bool))
        assert it == 1 and not sk.any()

    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (9, 12)])
    def test_all_foreground(self, rule, shape):
        assert_matches_oracle(rule, np.ones(shape, bool))

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_fortran_order(self, rule):
        pattern = np.asfortranarray(random_pattern((13, 21), 0.7, 3))
        assert_matches_oracle(rule, pattern)

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_int_input(self, rule):
        assert_matches_oracle(rule, random_pattern((17, 11), 0.7, 4).astype(int))


@pytest.mark.usefixtures("no_kernel")
class TestDriverDifferentialNumpy(TestDriverDifferential):
    """The differential tests under the numpy driver, where the plain run used C."""


def numpy_twin(rule, pattern):
    """The numpy driver's skeleton and iterations, whichever backend loads."""
    padded = _padded(pattern).array()
    iterations = baselines._numpy_sweep(padded, TABLES[rule])
    return padded[1:-1, 1:-1].view(bool), iterations


@pytest.mark.parametrize("rule", sorted(RULES))
def test_thick_shapes_match_numpy(rule):
    """Solid and holed shapes whose contour moves far, too large for the
    oracle: the automatic driver against the numpy one."""
    yy, xx = np.mgrid[:90, :120]
    disc = (yy - 45) ** 2 + (xx - 60) ** 2 < 40**2
    ring = disc & ((yy - 45) ** 2 + (xx - 60) ** 2 >= 12**2)
    for pattern in (disc, ring, np.pad(np.ones((60, 70), bool), 3)):
        sk, it = RULES[rule][0](pattern)
        expected, iterations = numpy_twin(rule, pattern)
        assert np.array_equal(sk, expected) and it == iterations


@pytest.fixture
def c_kernel():
    """Skips where no C kernel loads: ``zs_thin`` and ``gh_thin`` would then
    run the numpy driver, and the test would compare it with itself."""
    if _native.load() is None:
        pytest.skip("no C kernel loads here")


def census_image():
    """Every 4 x 4 pattern (bit j of pattern p is cell (j // 4, j % 4)) as a
    tile of one 1536 x 1536 image, 256 tiles a side, with 2 background cells
    after each tile along both axes."""
    bits = (np.arange(1 << 16)[:, None] >> np.arange(16) & 1).astype(bool)
    image = np.zeros((256, 6, 256, 6), bool)
    image[:, :4, :, :4] = bits.reshape(256, 256, 4, 4).transpose(0, 2, 1, 3)
    return image.reshape(1536, 1536)


@pytest.mark.usefixtures("c_kernel")
@pytest.mark.parametrize("rule", sorted(RULES))
def test_census_of_every_4x4_pattern_matches_numpy(rule):
    """The C sweep on every 4 x 4 pattern at once, shifted right by 0 to 7
    columns so that the tiles meet every byte lane of the seeding's words."""
    image = census_image()
    expected, iterations = numpy_twin(rule, image)
    for shift in range(8):
        sk, it = RULES[rule][0](np.pad(image, ((0, 0), (shift, 0))))
        assert np.array_equal(sk[:, shift:], expected) and not sk[:, :shift].any(), shift
        assert it == iterations, shift


def edge_patterns():
    """Patterns of every width mod 8 around one and eight words: all
    foreground, and of density 0.9 with a foreground cell on each border."""
    rng = np.random.default_rng(27)
    for width in (*range(1, 18), 63, 64, 65):
        for height in (1, 2, 3, 6, 11):
            yield np.ones((height, width), bool)
            pattern = rng.random((height, width)) < 0.9
            pattern[0, rng.integers(width)] = pattern[-1, rng.integers(width)] = True
            pattern[rng.integers(height), 0] = pattern[rng.integers(height), -1] = True
            yield pattern


@pytest.mark.usefixtures("c_kernel")
@pytest.mark.parametrize("rule", sorted(RULES))
def test_word_edges_match_numpy(rule):
    """Dense patterns whose rows end in every lane of a word: the seeding's
    word test and its per-cell tail against the numpy driver."""
    for pattern in edge_patterns():
        sk, it = RULES[rule][0](pattern)
        expected, iterations = numpy_twin(rule, pattern)
        assert np.array_equal(sk, expected) and it == iterations, pattern.shape
