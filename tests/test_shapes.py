import hashlib
import warnings

import numpy as np
import pytest

from slicethin.shapes import (
    KINDS,
    MarginError,
    RuggedSpec,
    ShapeSpec,
    generate,
    ruggedize,
)

from helpers import SHAPE_DIGESTS


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
