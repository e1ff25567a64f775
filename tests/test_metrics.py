import numpy as np
import pytest

from slicethin.metrics import (
    CSV_HEADER,
    UndefinedMetricError,
    evaluate,
    measure_mt,
    size_ratio,
)
from slicethin.pattern import DimensionError

from oracles import nuw_oracle


def random_pattern(shape, density, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


class TestMeasureMt:
    def test_thin_line_is_one(self):
        arr = np.zeros((3, 11), bool)
        arr[1, 1:10] = True
        assert measure_mt(arr) == 1.0

    def test_2x2_block_is_zero(self):
        arr = np.zeros((4, 4), bool)
        arr[1:3, 1:3] = True
        assert measure_mt(arr) == 0.0

    def test_2x2_block_covered(self):
        # The four block pixels are covered; the 4-pixel tail is not.
        arr = np.zeros((4, 8), bool)
        arr[1:3, 1:3] = True
        arr[1, 3:7] = True
        assert measure_mt(arr) == 1 - 4 / 8

    def test_3x3_block_all_covered(self):
        # The four 2x2 windows cover all 9 block pixels, each counted once;
        # the 3-pixel tail is not covered.
        arr = np.zeros((5, 8), bool)
        arr[1:4, 1:4] = True
        arr[2, 4:7] = True
        assert measure_mt(arr) == 1 - 9 / 12

    def test_ring_is_one(self):
        # 3x3 block minus its center has no all-foreground 2x2 window.
        arr = np.zeros((5, 5), bool)
        arr[1:4, 1:4] = True
        arr[2, 2] = False
        assert measure_mt(arr) == 1.0

    def test_empty_skeleton_raises(self):
        with pytest.raises(UndefinedMetricError):
            measure_mt(np.zeros((3, 3), bool))

    def test_3d_raises(self):
        with pytest.raises(DimensionError):
            measure_mt(np.ones((3, 3, 3), bool))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_window_scan_oracle(self, seed):
        p = random_pattern((9, 9), 0.6, seed)
        fg = {tuple(map(int, c)) for c in np.argwhere(p)}
        assert measure_mt(p) == 1 - len(nuw_oracle(fg, p.shape)) / len(fg)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_symmetries(self, seed):
        p = random_pattern((8, 12), 0.6, seed)
        if not p.any():
            p[1, 1] = True
        base = measure_mt(p)
        assert measure_mt(p.T) == pytest.approx(base)
        assert measure_mt(np.flip(p, 0)) == pytest.approx(base)
        assert measure_mt(np.flip(p, 1)) == pytest.approx(base)
        assert measure_mt(np.rot90(p)) == pytest.approx(base)


class TestSizeRatio:
    def test_identity(self):
        p = random_pattern((6, 6), 0.5, 0)
        p[0, 0] = True
        assert size_ratio(p, p) == 1.0

    def test_quarter(self):
        inp = np.zeros((8, 8), bool)
        inp.flat[:40] = True
        sk = np.zeros((8, 8), bool)
        sk.flat[:10] = True
        assert size_ratio(inp, sk) == 0.25

    def test_empty_skeleton(self):
        inp = np.ones((3, 3), bool)
        assert size_ratio(inp, np.zeros((3, 3), bool)) == 0.0

    def test_empty_input_raises(self):
        with pytest.raises(UndefinedMetricError):
            size_ratio(np.zeros((3, 3), bool), np.zeros((3, 3), bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            size_ratio(np.ones((3, 3), bool), np.ones((3, 4), bool))

    def test_monotone_under_pixel_removal(self):
        inp = np.ones((5, 5), bool)
        sk = inp.copy()
        previous = size_ratio(inp, sk)
        for c in [(0, 0), (1, 1), (2, 3)]:
            sk[c] = False
            current = size_ratio(inp, sk)
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
