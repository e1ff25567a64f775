"""Synthetic 2D/3D binary test solids and boundary "ruggedizing" noise.

Solids are rasterized from implicit inequalities on cell centers, using
coordinates centered at (N-1)/2 per axis, so symmetric kinds come out
mirror-symmetric about every central axis whenever the grid permits. Every
generated solid must keep at least one cell of background margin on each
face of the grid.

3D quadrics (cylinder, hyperboloids, paraboloid) are built around the last
axis (axis 2, "z"); their cross-sections live in the first two axes.

The solids use only operators and builtins on the coordinate arrays, and
numpy is imported where they are built: importing this module for
``KINDS`` and ``PARAMS`` loads no numpy.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import partial, reduce

from .pattern import _MAX_CELLS, as_pattern


class MarginError(ValueError):
    """Generated solid would touch the grid boundary."""


# A solid to generate: a kind of KINDS, the grid's size per axis and the
# kind's parameters by name.
ShapeSpec = namedtuple("ShapeSpec", "kind grid params")

# Boundary noise: the deletion probability of each boundary cell and the
# random generator's seed.
RuggedSpec = namedtuple("RuggedSpec", "probability seed")


def _box(x, *sizes):
    """Cells within (size - 1) / 2 of the centre along each leading axis of x."""
    return reduce(operator.and_, (abs(c) <= (size - 1) / 2 for c, size in zip(x, sizes)))


def _ball(x, radius):
    return sum(c**2 for c in x) <= radius**2


def _triangle(x, base, height):
    # Isoceles, apex up (lowest row index), symmetric about the vertical
    # axis; row t of 0..height-1 spans half-width (base-1)/2 * t/(height-1).
    if height < 2:
        raise ValueError("triangle height must be at least 2")
    t = x[0] + (height - 1) / 2
    halfwidth = (base - 1) / 2 * t / (height - 1)
    return (t >= 0) & (t <= height - 1) & (abs(x[1]) <= halfwidth)


def _hyperboloid(sign, x, radius, slope, height):
    # x^2 + y^2 <= radius^2 ((z / slope)^2 + sign): one sheet for +1, two for -1.
    bound = radius**2 * ((x[2] / slope) ** 2 + sign)
    return (x[0] ** 2 + x[1] ** 2 <= bound) & _box(x[2:], height)


def _paraboloid(x, radius, height):
    # Apex at the low-z face, opening along +z.
    t = x[2] + (height - 1) / 2
    return (t >= 0) & (t <= height - 1) & (x[0] ** 2 + x[1] ** 2 <= radius**2 * t)


# kind: (grid rank, parameter names, solid over the centred coordinates x).
_SHAPES = {
    "square": (2, ("side",), lambda x, side: _box(x, side, side)),
    "rectangle": (2, ("height", "width"), _box),
    "disc": (2, ("radius",), _ball),
    "triangle": (2, ("base", "height"), _triangle),
    "sphere": (3, ("radius",), _ball),
    "cylinder": (3, ("radius", "height"), lambda x, r, h: _ball(x[:2], r) & _box(x[2:], h)),
    "hyperboloid-one-sheet": (3, ("radius", "slope", "height"), partial(_hyperboloid, 1)),
    "hyperboloid-two-sheet": (3, ("radius", "slope", "height"), partial(_hyperboloid, -1)),
    "elliptic-paraboloid": (3, ("radius", "height"), _paraboloid),
}
KINDS = tuple(_SHAPES)
# Every parameter name in the table, once each, in order of first use.
PARAMS = tuple(dict.fromkeys(name for _, names, _ in _SHAPES.values() for name in names))


def _centered(grid):
    """Cell-centre coordinates less (N-1)/2: one sparse array per axis, N
    long along it and 1 along the others, which the solids broadcast."""
    import numpy as np

    return [c - (n - 1) / 2 for c, n in zip(np.indices(grid, dtype=float, sparse=True), grid)]


def _param(spec, name):
    try:
        value = spec.params[name]
    except KeyError:
        raise ValueError(f"shape {spec.kind!r} requires parameter {name!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"parameter {name!r} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"parameter {name!r} must be positive")
    return value


def generate(spec: ShapeSpec) -> np.ndarray:
    """Rasterize a filled solid of ``spec.kind`` inside the grid.

    ``spec.params`` must hold exactly the positive parameters that the
    kind's row of ``_SHAPES`` names.
    """
    grid = tuple(int(n) for n in spec.grid)
    if any(n < 1 for n in grid):
        raise ValueError("grid dimensions must be positive")
    if math.prod(grid) > _MAX_CELLS:  # checked before the solid allocates the mask
        raise ValueError(f"grid has more than {_MAX_CELLS} cells")
    if spec.kind not in _SHAPES:
        raise ValueError(f"unknown shape kind {spec.kind!r}")
    ndim, names, solid = _SHAPES[spec.kind]
    if len(grid) != ndim:
        raise ValueError(f"{spec.kind} needs a {ndim}-D grid, got {len(grid)}-D")
    for name in spec.params:
        if name not in names:
            raise ValueError(f"shape {spec.kind!r} takes {', '.join(names)}, not {name!r}")

    mask = solid(_centered(grid), *(_param(spec, name) for name in names))
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
    import numpy as np

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
