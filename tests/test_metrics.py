from itertools import product

import numpy as np
import pytest

from slicethin import _native, metrics
from slicethin.metrics import CSV_HEADER, UndefinedMetricError, evaluate
from slicethin.pattern import _padded

from oracles import nuw_oracle


def random_pattern(shape, density, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


def m_t(skeleton):
    return evaluate(skeleton, skeleton, 0).m_t


def s_r(input_pattern, skeleton):
    return evaluate(input_pattern, skeleton, 0).s_r


class TestMeasureMt:
    def test_thin_line_is_one(self):
        arr = np.zeros((3, 11), bool)
        arr[1, 1:10] = True
        assert m_t(arr) == 1.0

    def test_2x2_block_is_zero(self):
        arr = np.zeros((4, 4), bool)
        arr[1:3, 1:3] = True
        assert m_t(arr) == 0.0

    def test_2x2_block_covered(self):
        # The four block pixels are covered; the 4-pixel tail is not.
        arr = np.zeros((4, 8), bool)
        arr[1:3, 1:3] = True
        arr[1, 3:7] = True
        assert m_t(arr) == 1 - 4 / 8

    def test_3x3_block_all_covered(self):
        # The four 2x2 windows cover all 9 block pixels, each counted once;
        # the 3-pixel tail is not covered.
        arr = np.zeros((5, 8), bool)
        arr[1:4, 1:4] = True
        arr[2, 4:7] = True
        assert m_t(arr) == 1 - 9 / 12

    def test_ring_is_one(self):
        # 3x3 block minus its center has no all-foreground 2x2 window.
        arr = np.zeros((5, 5), bool)
        arr[1:4, 1:4] = True
        arr[2, 2] = False
        assert m_t(arr) == 1.0

    def test_empty_skeleton_raises(self):
        with pytest.raises(UndefinedMetricError, match="^m_t is undefined for an empty skeleton$"):
            m_t(np.zeros((3, 3), bool))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_window_scan_oracle(self, seed):
        p = random_pattern((9, 9), 0.6, seed)
        fg = {tuple(map(int, c)) for c in np.argwhere(p)}
        assert m_t(p) == 1 - len(nuw_oracle(fg, p.shape)) / len(fg)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_symmetries(self, seed):
        p = random_pattern((8, 12), 0.6, seed)
        if not p.any():
            p[1, 1] = True
        base = m_t(p)
        assert m_t(p.T) == pytest.approx(base)
        assert m_t(np.flip(p, 0)) == pytest.approx(base)
        assert m_t(np.flip(p, 1)) == pytest.approx(base)
        assert m_t(np.rot90(p)) == pytest.approx(base)


class TestSizeRatio:
    def test_identity(self):
        p = random_pattern((6, 6), 0.5, 0)
        p[0, 0] = True
        assert s_r(p, p) == 1.0

    def test_quarter(self):
        inp = np.zeros((8, 8), bool)
        inp.flat[:40] = True
        sk = np.zeros((8, 8), bool)
        sk.flat[:10] = True
        assert s_r(inp, sk) == 0.25

    def test_empty_skeleton(self):
        # In 3D, where m_t is NA: evaluate raises for an empty 2D skeleton.
        inp = np.ones((3, 3, 3), bool)
        assert s_r(inp, np.zeros((3, 3, 3), bool)) == 0.0

    def test_empty_input_raises(self):
        empty = np.zeros((3, 3, 3), bool)
        with pytest.raises(UndefinedMetricError, match="^s_r is undefined for an empty input$"):
            s_r(empty, empty)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            s_r(np.ones((3, 3), bool), np.ones((3, 4), bool))

    def test_monotone_under_pixel_removal(self):
        inp = np.ones((5, 5), bool)
        sk = inp.copy()
        previous = s_r(inp, sk)
        for c in [(0, 0), (1, 1), (2, 3)]:
            sk[c] = False
            current = s_r(inp, sk)
            assert current <= previous
            previous = current


class TestEvaluate:
    def test_single_pixel(self):
        p = np.zeros((3, 3), bool)
        p[1, 1] = True
        report = evaluate(p, p, 1)
        assert report.s_r == 1.0
        assert report.m_t == 1.0
        assert report.n == 1
        assert report.component_delta == 0
        assert report.area_input == report.area_skeleton == 1

    def test_3d_has_na_mt(self):
        p = np.zeros((3, 3, 3), bool)
        p[1, 1, 1] = True
        report = evaluate(p, p, 2)
        assert report.m_t is None
        assert report.csv_row("nd") == "nd,1,NA,2,0,1,1"

    def test_csv_row_schema(self):
        p = np.zeros((3, 3), bool)
        p[1, 1] = True
        row = evaluate(p, p, 1).csv_row("zs")
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        assert row == "zs,1,1,1,0,1,1"

    def test_csv_header_is_the_documented_schema(self):
        assert CSV_HEADER == "algorithm,s_r,m_t,n,component_delta,area_input,area_skeleton"

    def test_warns_on_non_subset(self):
        inp = np.zeros((3, 3), bool)
        inp[1, 1] = True
        sk = np.zeros((3, 3), bool)
        sk[0, 0] = True
        with pytest.warns(UserWarning):
            evaluate(inp, sk, 1)

    def test_component_delta(self):
        inp = np.zeros((5, 5), bool)
        inp[0, 0] = inp[4, 4] = True
        sk = np.zeros((5, 5), bool)
        sk[0, 0] = True
        report = evaluate(inp, sk, 1)
        assert report.component_delta == -1

    def test_negative_iterations_raise(self):
        # The CSV row's n column is an iteration count, never negative.
        p = np.ones((5, 5), bool)
        with pytest.raises(ValueError, match="iterations"):
            evaluate(p, p, -4)
        assert evaluate(p, p, 0).n == 0


@pytest.mark.usefixtures("no_kernel")
class TestMeasureMtNumpy(TestMeasureMt):
    """The m_t tests under the numpy counts, where the plain run used C."""


@pytest.mark.usefixtures("no_kernel")
class TestSizeRatioNumpy(TestSizeRatio):
    """The s_r tests under the numpy counts, where the plain run used C."""


@pytest.mark.usefixtures("no_kernel")
class TestEvaluateNumpy(TestEvaluate):
    """The report tests under the numpy counts, where the plain run used C."""


# Random k = 2..4 shapes, the one-line shapes of both orientations, and
# whether the input is in Fortran order.
_COUNT_CASES = [((1, 9), False), ((9, 1), True), ((1, 1), False)] + [
    (tuple(np.random.default_rng(seed).integers(1, 8, size=2 + seed % 3)), seed % 2 == 1)
    for seed in range(30)
]


@pytest.mark.parametrize("shape, fortran", _COUNT_CASES)
def test_counts_match_numpy_twin(shape, fortran):
    """slicethin_counts against _numpy_counts, on a skeleton that keeps part
    of the input and adds a few cells outside it."""
    if _native.load() is None:
        pytest.skip("no C kernel loads here")
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    inp = rng.random(shape) < rng.random()
    sk = (inp & (rng.random(shape) < 0.8)) | (rng.random(shape) < 0.1)
    if fortran:
        inp, sk = np.asfortranarray(inp), np.asfortranarray(sk)
    a, b = _padded(inp), _padded(sk)
    counts = metrics._counts(a, b)
    assert counts == metrics._numpy_counts(a.array(), b.array())
    assert counts[:3] == (inp.sum(), sk.sum(), (sk & ~inp).sum())
    if sk.ndim == 2:
        fg = {tuple(map(int, c)) for c in np.argwhere(sk)}
        assert counts[3] == len(nuw_oracle(fg, sk.shape))


def test_counts_on_every_small_2d_shape():
    """Every 2D shape up to 6 x 6, where the cells that slicethin_counts
    takes one at a time, after its words, span more than one row."""
    if _native.load() is None:
        pytest.skip("no C kernel loads here")
    rng = np.random.default_rng(3)
    for shape in product(range(1, 7), repeat=2):
        for _ in range(10):
            inp, sk = rng.random(shape) < 0.7, rng.random(shape) < 0.7
            a, b = _padded(inp), _padded(sk)
            assert metrics._counts(a, b) == metrics._numpy_counts(a.array(), b.array()), shape


@pytest.mark.parametrize("shape", [(3, 3000), (2, 2, 4000), (250, 250)])
def test_counts_of_long_runs_and_dense_skeletons(shape):
    """slicethin_counts adds up eight cells at a time in byte lanes: runs of
    thousands of foreground cells fill every lane past 255 words, and a
    dense random skeleton covers cells all over."""
    if _native.load() is None:
        pytest.skip("no C kernel loads here")
    full = _padded(np.ones(shape, bool))
    size = np.prod(shape)
    covered = size if len(shape) == 2 else 0
    assert metrics._counts(full, full) == (size, size, 0, covered)
    rng = np.random.default_rng(size)
    inp, sk = rng.random(shape) < 0.5, rng.random(shape) < 0.7
    a, b = _padded(inp), _padded(sk)
    assert metrics._counts(a, b) == metrics._numpy_counts(a.array(), b.array())
