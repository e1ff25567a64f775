"""Synthetic 2D/3D binary test solids and boundary "ruggedizing" noise.

Solids are rasterized from implicit inequalities on cell centers, using
coordinates centered at (N-1)/2 per axis, so symmetric kinds come out
mirror-symmetric about every central axis whenever the grid permits. Every
generated solid must keep at least one cell of background margin on each
face of the grid.

3D quadrics (cylinder, hyperboloids, paraboloid) are built around the last
axis (axis 2, "z"); their cross-sections live in the first two axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pattern import _MAX_CELLS, as_pattern


class MarginError(ValueError):
    """Generated solid would touch the grid boundary."""


KINDS_2D = ("square", "rectangle", "disc", "triangle")
KINDS_3D = (
    "sphere",
    "cylinder",
    "hyperboloid-one-sheet",
    "hyperboloid-two-sheet",
    "elliptic-paraboloid",
)


@dataclass(frozen=True)
class ShapeSpec:
    kind: str
    grid: tuple[int, ...]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RuggedSpec:
    probability: float
    seed: int


def _centered(grid):
    cs = np.indices(grid, dtype=float)
    for i, n in enumerate(grid):
        cs[i] -= (n - 1) / 2
    return cs


def _param(spec, name):
    try:
        value = spec.params[name]
    except KeyError:
        raise ValueError(f"shape {spec.kind!r} requires parameter {name!r}") from None
    if value <= 0:
        raise ValueError(f"parameter {name!r} must be positive")
    return value


def generate(spec: ShapeSpec) -> np.ndarray:
    """Rasterize a filled solid inside the grid.

    Parameters by kind: square(side), rectangle(height, width), disc(radius),
    triangle(base, height), sphere(radius), cylinder(radius, height),
    hyperboloid-one-sheet(radius, slope, height),
    hyperboloid-two-sheet(radius, slope, height),
    elliptic-paraboloid(radius, height).
    """
    grid = tuple(int(n) for n in spec.grid)
    if any(n < 1 for n in grid):
        raise ValueError("grid dimensions must be positive")
    if math.prod(grid) > _MAX_CELLS:  # checked before _centered allocates the grid
        raise ValueError(f"grid has more than {_MAX_CELLS} cells")
    ndim = 2 if spec.kind in KINDS_2D else 3 if spec.kind in KINDS_3D else None
    if ndim is None:
        raise ValueError(f"unknown shape kind {spec.kind!r}")
    if len(grid) != ndim:
        raise ValueError(f"{spec.kind} needs a {ndim}-D grid, got {len(grid)}-D")

    cs = _centered(grid)
    if spec.kind == "square":
        half = (_param(spec, "side") - 1) / 2
        mask = (np.abs(cs[0]) <= half) & (np.abs(cs[1]) <= half)
    elif spec.kind == "rectangle":
        h = (_param(spec, "height") - 1) / 2
        w = (_param(spec, "width") - 1) / 2
        mask = (np.abs(cs[0]) <= h) & (np.abs(cs[1]) <= w)
    elif spec.kind == "disc":
        r = _param(spec, "radius")
        mask = cs[0] ** 2 + cs[1] ** 2 <= r**2
    elif spec.kind == "triangle":
        # Isoceles, apex up (lowest row index), symmetric about the vertical
        # axis; row t of 0..height-1 spans half-width (base-1)/2 * t/(height-1).
        base = _param(spec, "base")
        height = _param(spec, "height")
        if height < 2:
            raise ValueError("triangle height must be at least 2")
        t = cs[0] + (height - 1) / 2
        halfwidth = (base - 1) / 2 * t / (height - 1)
        mask = (t >= 0) & (t <= height - 1) & (np.abs(cs[1]) <= halfwidth)
    elif spec.kind == "sphere":
        r = _param(spec, "radius")
        mask = cs[0] ** 2 + cs[1] ** 2 + cs[2] ** 2 <= r**2
    elif spec.kind == "cylinder":
        r = _param(spec, "radius")
        h = (_param(spec, "height") - 1) / 2
        mask = (cs[0] ** 2 + cs[1] ** 2 <= r**2) & (np.abs(cs[2]) <= h)
    elif spec.kind == "hyperboloid-one-sheet":
        a = _param(spec, "radius")
        c = _param(spec, "slope")
        h = (_param(spec, "height") - 1) / 2
        mask = (cs[0] ** 2 + cs[1] ** 2 <= a**2 * (1 + (cs[2] / c) ** 2)) & (
            np.abs(cs[2]) <= h
        )
    elif spec.kind == "hyperboloid-two-sheet":
        a = _param(spec, "radius")
        c = _param(spec, "slope")
        h = (_param(spec, "height") - 1) / 2
        mask = (cs[0] ** 2 + cs[1] ** 2 <= a**2 * ((cs[2] / c) ** 2 - 1)) & (
            np.abs(cs[2]) <= h
        )
    else:  # elliptic-paraboloid, apex at the low-z face, opening along +z
        a = _param(spec, "radius")
        height = _param(spec, "height")
        t = cs[2] + (height - 1) / 2
        mask = (t >= 0) & (t <= height - 1) & (cs[0] ** 2 + cs[1] ** 2 <= a**2 * t)

    if not mask.any():
        raise ValueError(f"shape {spec.kind!r} produced no foreground cells")
    for axis in range(mask.ndim):
        if mask.take(0, axis=axis).any() or mask.take(-1, axis=axis).any():
            raise MarginError(
                f"{spec.kind} touches the grid boundary along axis {axis}; "
                "enlarge the grid or shrink the shape"
            )
    return mask


def ruggedize(pattern, spec: RuggedSpec) -> np.ndarray:
    """Randomly delete boundary cells (those with a background face-neighbor).

    Each boundary foreground cell is flipped to background independently
    with the given probability; cells outside the grid count as background.
    Interior cells are never touched. Fully deterministic given the seed.
    """
    if not 0.0 <= spec.probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    arr = as_pattern(pattern).copy()
    # A cell is interior when it and its 2k face-neighbours are foreground.
    padded = np.pad(arr, 1)
    interior = arr.copy()
    for axis, n in enumerate(arr.shape):
        for lo in (0, 2):
            index = [slice(1, -1)] * arr.ndim
            index[axis] = slice(lo, lo + n)
            interior &= padded[tuple(index)]
    boundary = np.argwhere(arr & ~interior)  # lexicographic order
    rng = np.random.default_rng(spec.seed)
    drop = boundary[rng.random(len(boundary)) < spec.probability]
    if len(drop):
        arr[tuple(drop.T)] = False
    return arr
