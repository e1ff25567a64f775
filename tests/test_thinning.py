import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hyp
from hypothesis.extra import numpy as hnp

from slicethin.pattern import DimensionError, component_count
from slicethin.thinning import ScheduleError, thin

from helpers import run_subcycle
from oracles import foreground_coords, phases_oracle, subcycle_oracle, thin_oracle


def from_coords(shape, coords):
    arr = np.zeros(shape, bool)
    for c in coords:
        arr[c] = True
    return arr


class TestSchedule:
    """Schedules as ``thin`` reads them: checked by the skeletons they give."""

    def test_parse_default_2d(self):
        for seed in range(3):
            p = random_pattern((14, 14), 0.5, seed)
            assert_same_thinning(thin(p), thin(p, "1fb,0fb"))

    def test_parse_phases(self):
        # Each phase runs to convergence before the next; iterations add up.
        p = random_pattern((7, 7, 7), 0.5, 0)
        first, n_first = thin(p, "2fb")
        second, n_second = thin(first, "1fb,0fb")
        assert_same_thinning(thin(p, "2fb;1fb,0fb"), (second, n_first + n_second))

    def test_default_orders_innermost_first(self):
        for seed in range(3):
            p = random_pattern((7, 7, 7), 0.5, seed)
            assert_same_thinning(thin(p), thin(p, "2fb,1fb,0fb"))

    @pytest.mark.parametrize("bad", ["", "x", "1fb,", "1c", "fb1", "1 fb", ";", "1fb;;0fb"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ScheduleError):
            thin(np.ones((4, 4), bool), bad)

    def test_validate_axis_range(self):
        # Every phase is checked, not only the first.
        with pytest.raises(ScheduleError):
            thin(np.ones((4, 4), bool), "1fb;0fb,2fb")
        with pytest.raises(ScheduleError):
            thin(np.ones((3, 3, 3), bool), "3f")


def assert_same_thinning(a, b):
    """Two (skeleton, iterations) results of ``thin`` are identical."""
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestRunScan:
    """A sub-cycle finds every maximal run of a slice and tests its ends."""

    def test_two_runs(self):
        # Two 3x3 blocks share every row: one horizontal pass thins both
        # runs of each row to the block's centre column.
        arr = np.zeros((3, 7), bool)
        arr[:, 0:3] = arr[:, 4:7] = True
        assert run_subcycle(arr, 1, "fb") > 0
        assert foreground_coords(arr) == {(x, y) for x in range(3) for y in (1, 5)}

    def test_background_slice(self):
        arr = np.zeros((3, 4), bool)
        assert run_subcycle(arr, 1, "fb") == 0
        assert not arr.any()

    def test_full_slice(self):
        # Runs that touch both ends of the slice.
        arr = np.ones((2, 3), bool)
        assert run_subcycle(arr, 1, "fb") > 0
        assert foreground_coords(arr) == {(0, 1), (1, 1)}

    def test_run_coords(self):
        # The slice index goes back in at ``axis`` among the fixed coordinates.
        for axis in range(3):
            arr = random_pattern((5, 4, 6), 0.6, axis)
            fg = foreground_coords(arr)
            subcycle_oracle(fg, arr.shape, axis, "fb")
            run_subcycle(arr, axis, "fb")
            assert foreground_coords(arr) == fg


def check_subcycle(arr, axis, dirs, kept):
    """Run one sub-cycle; it must agree with the oracle and keep ``kept``."""
    fg = foreground_coords(arr)
    subcycle_oracle(fg, arr.shape, axis, dirs)
    run_subcycle(arr, axis, dirs)
    assert foreground_coords(arr) == fg == kept


class TestIsEndpoint:
    """End-points (<= 2 cells in the 3^k block, p included) are never deleted."""

    def test_isolated_pixel(self):
        arr = from_coords((3, 3), [(1, 1)])
        check_subcycle(arr, 1, "fb", {(1, 1)})

    def test_one_neighbor(self):
        # A run of two: each end has one neighbour, so both stay.
        arr = from_coords((3, 4), [(1, 1), (1, 2)])
        check_subcycle(arr, 1, "f", {(1, 1), (1, 2)})

    def test_plus_center(self):
        # The front pixel (1, 2) has two neighbours, (1, 1) and (2, 1), and
        # nothing ahead of it: it is deleted.
        arr = from_coords((3, 4), [(1, 1), (1, 2), (2, 1)])
        check_subcycle(arr, 1, "f", {(1, 1), (2, 1)})


class TestContourDeletable:
    """The deletability of a run extreme, checked through one-direction sub-cycles."""

    def test_retained_when_bridge_to_ahead_neighbor(self):
        # Deleting (1,1) would disconnect (1,0) from (0,2): the shared
        # cell (0,1) is background, so the forward pixel must stay.
        arr = from_coords((3, 4), [(1, 0), (1, 1), (0, 2)])
        check_subcycle(arr, 1, "f", {(1, 0), (1, 1), (0, 2)})

    def test_deletable_with_no_ahead_neighbors(self):
        # Each row's front pixel (x, 2) has nothing ahead and is deleted.
        arr = np.zeros((3, 4), bool)
        arr[0:3, 0:3] = True
        check_subcycle(arr, 1, "f", {(x, y) for x in range(3) for y in range(2)})

    def test_backward_mirror(self):
        # Deleting (1,1) would disconnect (1,2) from (0,0) behind it.
        arr = from_coords((3, 4), [(0, 0), (1, 1), (1, 2)])
        check_subcycle(arr, 1, "b", {(0, 0), (1, 1), (1, 2)})

    def test_endpoint_retained(self):
        arr = from_coords((3, 4), [(1, 1), (1, 0)])
        check_subcycle(arr, 1, "f", {(1, 0), (1, 1)})


class TestThinSubcycle:
    def test_domino_unchanged(self):
        arr = from_coords((1, 2), [(0, 0), (0, 1)])
        assert run_subcycle(arr, 1, "fb") == 0
        assert arr.all()

    def test_width_one_row_protected(self):
        arr = np.ones((1, 4), bool)
        assert run_subcycle(arr, 1, "fb") == 0
        assert arr.all()

    def test_3x3_block_one_pass(self):
        # Golden from the set-based simulation oracle: one horizontal pass
        # leaves the center column.
        arr = np.ones((3, 3), bool)
        assert run_subcycle(arr, 1, "fb") > 0
        assert foreground_coords(arr) == {(0, 1), (1, 1), (2, 1)}

    @pytest.mark.parametrize(
        "shape, view",
        [
            ((6, 9), lambda b: b[:, ::-1]),
            ((6, 9), lambda b: b.T),
            ((5, 4, 6), lambda b: b.T),
        ],
        ids=["reversed", "fortran-2d", "fortran-3d"],
    )
    def test_writes_through_view(self, shape, view):
        # The caller's array changes in place through a view that is not
        # C-contiguous.
        base = random_pattern(shape, 0.6, 4)
        fg = foreground_coords(view(base))
        subcycle_oracle(fg, view(base).shape, 1, "fb")
        assert run_subcycle(view(base), 1, "fb") > 0
        assert foreground_coords(view(base)) == fg

    def test_more_than_8_dims(self):
        # One cell: the 3^9 block would still be built and scanned without the cap.
        with pytest.raises(DimensionError):
            thin(np.ones((1,) * 9, bool))


@pytest.mark.usefixtures("python_kernel")
class TestThinSubcyclePython(TestThinSubcycle):
    """The sub-cycle tests under the Python kernel, where the plain run used C."""


_LAYOUTS = {
    "c-order": lambda a: (a, lambda base: base),
    "transposed": lambda a: (a.T.copy(), lambda base: base.T),
    "reversed": lambda a: (a[::-1].copy(), lambda base: base[::-1]),
    "strided": lambda a: (np.repeat(a, 2, axis=-1), lambda base: base[..., ::2]),
}


# TestKernelDifferentialPython runs these tests again from a subclass, which
# Hypothesis sees as a second executor; both backends must pass the same
# examples, so sharing them is what is wanted.
_DIFFERENTIAL = settings(
    max_examples=500, deadline=None, suppress_health_check=[HealthCheck.differing_executors]
)
_SHAPES = hnp.array_shapes(min_dims=2, max_dims=4, min_side=0, max_side=6)
_STEPS = hyp.lists(
    hyp.tuples(hyp.integers(0, 3), hyp.sampled_from(["f", "b", "fb"])), min_size=1, max_size=3
)


class TestKernelDifferential:
    @given(hnp.arrays(bool, _SHAPES), hyp.sampled_from(sorted(_LAYOUTS)), _STEPS)
    @_DIFFERENTIAL
    def test_matches_subcycle_oracle(self, pattern, layout, steps):
        """A run of sub-cycles on one array, each checked against the oracle
        through the caller's base array, for C-order and non-contiguous views."""
        base, view = _LAYOUTS[layout](pattern)
        fg = foreground_coords(pattern)
        for axis, dirs in steps:
            axis %= pattern.ndim
            before = set(fg)
            subcycle_oracle(fg, pattern.shape, axis, dirs)
            assert run_subcycle(view(base), axis, dirs) == len(before - fg)
            assert foreground_coords(view(base)) == fg

    @given(
        hnp.arrays(bool, _SHAPES),
        hyp.sampled_from(sorted(_LAYOUTS)),
        hyp.one_of(hyp.none(), hyp.lists(_STEPS, min_size=1, max_size=2)),
    )
    @_DIFFERENTIAL
    def test_thin_matches_thin_oracle(self, pattern, layout, phases):
        """``thin`` of a view, under the default or a random schedule."""
        base, view = _LAYOUTS[layout](pattern)
        if phases is not None:
            phases = [[(axis % pattern.ndim, dirs) for axis, dirs in phase] for phase in phases]
        schedule = None if phases is None else ";".join(
            ",".join(f"{axis}{dirs}" for axis, dirs in phase) for phase in phases
        )
        sk, it = thin(view(base), schedule)
        assert (foreground_coords(sk), it) == thin_oracle(
            foreground_coords(pattern), pattern.shape, phases
        )


@pytest.mark.usefixtures("python_kernel")
class TestKernelDifferentialPython(TestKernelDifferential):
    """The differential tests under the Python kernel, where the plain run used C."""


class TestThin:
    def test_empty_pattern(self):
        sk, it = thin(np.zeros((4, 4), bool))
        assert not sk.any() and it == 1

    def test_single_pixel(self):
        arr = from_coords((3, 3), [(1, 1)])
        sk, it = thin(arr)
        assert np.array_equal(sk, arr) and it == 1

    def test_square_horizontal_only_gives_center_column(self):
        sk, it = thin(np.ones((7, 7), bool), "1fb")
        expected = np.zeros((7, 7), bool)
        expected[:, 3] = True
        assert np.array_equal(sk, expected)
        assert it == 4

    def test_schedule_axis_out_of_range(self):
        with pytest.raises(ScheduleError):
            thin(np.ones((4, 4), bool), "2fb")

    def test_input_not_mutated(self):
        arr = np.ones((5, 5), bool)
        thin(arr)
        assert arr.all()


def random_pattern(shape, density, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


def oracle_cases(shape, seeds, extra):
    """Default-schedule cases by seed, then (shape, schedule) cases at seed 0.

    A schedule of None is the default one.
    """
    cases = [pytest.param(shape, None, seed, id=str(seed)) for seed in seeds]
    for shape, schedule in extra:
        case_id = "x".join(map(str, shape)) + "-" + (schedule or "default")
        cases.append(pytest.param(shape, schedule, 0, id=case_id))
    return cases


def check_against_oracle(shape, schedule, density, seed):
    p = random_pattern(shape, density, seed)
    sk, it = thin(p, schedule)
    phases = None if schedule is None else phases_oracle(schedule)
    oracle_fg, oracle_it = thin_oracle(foreground_coords(p), p.shape, phases)
    assert foreground_coords(sk) == oracle_fg
    assert it == oracle_it


class TestThinProperties:
    @pytest.mark.parametrize(
        "shape, schedule, seed",
        oracle_cases((14, 14), range(6), [((1, 9), None), ((1, 9), "1b"), ((14, 14), "1b")]),
    )
    def test_matches_set_oracle_2d(self, shape, schedule, seed):
        check_against_oracle(shape, schedule, 0.5, seed)

    # k >= 3, including one 4D pattern.
    @pytest.mark.parametrize(
        "shape, schedule, seed",
        oracle_cases(
            (7, 7, 7),
            range(3),
            [
                ((6, 1, 5), None),
                ((6, 1, 5), "2fb;0fb"),
                ((7, 7, 7), "2fb;0fb"),
                ((5, 4, 5, 4), None),
                ((5, 4, 5, 4), "3fb;2f,1b,0fb"),
            ],
        ),
    )
    def test_matches_set_oracle_3d(self, shape, schedule, seed):
        check_against_oracle(shape, schedule, 0.4, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_anti_growth_and_termination(self, seed):
        p = random_pattern((16, 16), 0.55, seed)
        sk, it = thin(p)
        assert not (sk & ~p).any()
        assert it <= int(p.sum()) + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_idempotent(self, seed):
        p = random_pattern((16, 16), 0.55, seed)
        sk, _ = thin(p)
        again, it = thin(sk)
        assert np.array_equal(again, sk)
        assert it == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_deterministic(self, seed):
        p = random_pattern((16, 16), 0.5, seed)
        a, ita = thin(p)
        b, itb = thin(p)
        assert np.array_equal(a, b) and ita == itb

    @pytest.mark.parametrize("seed", range(6))
    def test_connectivity_preserved(self, seed):
        p = random_pattern((20, 20), 0.5, seed)
        sk, _ = thin(p)
        assert component_count(sk) == component_count(p)

    def test_isolated_pixel_survives(self):
        p = random_pattern((16, 16), 0.4, 3)
        p[0, 15] = True
        p[0, 14] = p[1, 14] = p[1, 15] = False
        sk, _ = thin(p)
        assert sk[0, 15]

    @pytest.mark.parametrize("axis", [0, 1])
    def test_straight_segment_fixed_point(self, axis):
        arr = np.zeros((9, 9), bool)
        idx = (4, slice(1, 8)) if axis == 1 else (slice(1, 8), 4)
        arr[idx] = True
        sk, it = thin(arr)
        assert np.array_equal(sk, arr) and it == 1

    def test_3d_segment_fixed_point(self):
        arr = np.zeros((5, 5, 9), bool)
        arr[2, 2, 1:8] = True
        sk, it = thin(arr)
        assert np.array_equal(sk, arr) and it == 1


@pytest.mark.usefixtures("python_kernel")
class TestThinPropertiesPython(TestThinProperties):
    """The property tests under the Python kernel, where the plain run used C."""
