"""Synthetic 2D/3D binary test solids and boundary "ruggedizing" noise.

Solids are rasterized from implicit inequalities on cell centers, using
coordinates centered at (N-1)/2 per axis, so symmetric kinds come out
mirror-symmetric about every central axis whenever the grid permits. Every
generated solid must keep at least one cell of background margin on each
face of the grid.

3D quadrics (cylinder, hyperboloids, paraboloid) are built around the last
axis (axis 2, "z"); their cross-sections live in the first two axes.

The solids of ``_SHAPES`` use only ``+ - * / <= >= & abs`` on the
coordinates, and are evaluated two ways with the same result to the bit:
``generate`` on numpy's sparse coordinate arrays, and ``generate_padded``,
the CLI's, one line along the last axis at a time, with the other axes'
coordinates plain floats and the last one a ``_Line``. A coordinate is
squared as ``c * c`` and sums are explicit additions, so a float and an
array round alike. ``ruggedize`` works on a ``Padded`` and draws numpy's
PCG64 stream in pure Python, so the CLI's ``gen`` imports no numpy, and the
library no ``numpy.random``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import namedtuple
from functools import partial, reduce

from .pattern import _MAX_CELLS, Padded, _as_given, _pad, _padded


class MarginError(ValueError):
    """Generated solid would touch the grid boundary."""


# A solid to generate: a kind of KINDS, the grid's size per axis and the
# kind's parameters by name.
ShapeSpec = namedtuple("ShapeSpec", "kind grid params")

# Boundary noise: the deletion probability of each boundary cell and the
# random generator's seed, a non-negative int.
RuggedSpec = namedtuple("RuggedSpec", "probability seed")


def _box(x, *sizes):
    """Cells within (size - 1) / 2 of the centre along each leading axis of x."""
    return reduce(operator.and_, (abs(c) <= (size - 1) / 2 for c, size in zip(x, sizes)))


def _ball(x, radius):
    return reduce(operator.add, (c * c for c in x)) <= radius**2


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
    q = x[2] / slope
    bound = radius**2 * (q * q + sign)
    return (x[0] * x[0] + x[1] * x[1] <= bound) & _box(x[2:], height)


def _paraboloid(x, radius, height):
    # Apex at the low-z face, opening along +z.
    t = x[2] + (height - 1) / 2
    return (t >= 0) & (t <= height - 1) & (x[0] * x[0] + x[1] * x[1] <= radius**2 * t)


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


class _Line:
    """The cells of one line along the last axis: their coordinates, or one
    value each, which the solids' operators map over, cell by cell, with a
    plain number or with another line."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values

    def _map(op, reflected=False):
        def method(self, other):
            if isinstance(other, _Line):
                args = self.values, other.values
            elif reflected:
                args = itertools.repeat(other), self.values
            else:
                args = self.values, itertools.repeat(other)
            return _Line(list(map(op, *args)))

        return method

    __add__, __radd__ = _map(operator.add), _map(operator.add, True)
    __sub__, __rsub__ = _map(operator.sub), _map(operator.sub, True)
    __mul__, __rmul__ = _map(operator.mul), _map(operator.mul, True)
    __truediv__, __rtruediv__ = _map(operator.truediv), _map(operator.truediv, True)
    __and__, __rand__ = _map(operator.and_), _map(operator.and_, True)
    # A number compared with a line is the line compared the other way.
    __le__, __ge__ = _map(operator.le), _map(operator.ge)
    del _map

    def __abs__(self):
        return _Line(list(map(abs, self.values)))


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


def _checked(spec: ShapeSpec):
    """The grid, the solid and the parameter values of ``spec``, or the
    ``ValueError`` of its first fault."""
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
    return grid, solid, [_param(spec, name) for name in names]


def _faces(cells, grid, axis):
    """Slices of ``cells`` (one byte per cell, C order) that together hold
    the cells at either end of ``axis``: one per block of the face, or one
    strided slice per cell of a block where there are fewer of those."""
    inner = math.prod(grid[axis + 1 :])
    period = grid[axis] * inner
    for start in (0, period - inner):
        if inner <= len(cells) // period:
            yield from (cells[start + j :: period] for j in range(inner))
        else:
            yield from (cells[s : s + inner] for s in range(start, len(cells), period))


def _check_margin(kind, cells, grid):
    """Raise unless the solid ``cells`` has a cell and none on a face of the grid."""
    if 1 not in cells:
        raise ValueError(f"shape {kind!r} produced no foreground cells")
    for axis in range(len(grid)):
        if any(1 in face for face in _faces(cells, grid, axis)):
            raise MarginError(
                f"{kind} touches the grid boundary along axis {axis}; "
                "enlarge the grid or shrink the shape"
            )


def generate(spec: ShapeSpec) -> np.ndarray:
    """Rasterize a filled solid of ``spec.kind`` inside the grid, as a bool array.

    ``spec.params`` must hold exactly the positive parameters that the
    kind's row of ``_SHAPES`` names.
    """
    grid, solid, values = _checked(spec)
    import numpy as np

    x = [c - (n - 1) / 2 for c, n in zip(np.indices(grid, dtype=float, sparse=True), grid)]
    mask = solid(x, *values)
    _check_margin(spec.kind, mask.tobytes(), grid)
    return mask


def generate_padded(spec: ShapeSpec) -> Padded:
    """``generate`` for the CLI: the solid as a ``Padded``, built with no numpy."""
    grid, solid, values = _checked(spec)
    *lead, n = grid
    last = _Line([j - (n - 1) / 2 for j in range(n)])
    # The leading axes' coordinates in C order, one line of the last axis each.
    coords = itertools.product(*([i - (m - 1) / 2 for i in range(m)] for m in lead))
    cells = b"".join(bytes(solid([*x, last], *values).values) for x in coords)
    _check_margin(spec.kind, cells, grid)
    return _pad(bytearray(cells), grid)


# numpy's SeedSequence and PCG64 (XSL-RR 128/64) constants.
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _uniforms(seed, n):
    """The first ``n`` floats of ``np.random.default_rng(seed).random()``:
    ``SeedSequence(seed)`` mixes the seed's 32-bit words into a pool of
    four, which seeds PCG64, whose 64-bit outputs give 53-bit floats."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (x * 0xCA01F9DD - y * 0x4973F715) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, read as four 64-bit ones.
    mult, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        state.append(value ^ value >> 16)
    s, t, u, v = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    # PCG64's seeding: from state 0, one step (the state becomes inc), the
    # seed added, and one more step. Each draw steps, then outputs.
    inc = ((u << 64 | v) << 1 | 1) & _M128
    x = ((inc + (s << 64 | t)) * _PCG_MULTIPLIER + inc) & _M128
    out = []
    for _ in range(n):
        x = (x * _PCG_MULTIPLIER + inc) & _M128
        word = (x >> 64 ^ x) & _M64
        rot = x >> 122
        out.append((((word >> rot | word << 64 - rot) & _M64) >> 11) * 2.0**-53)
    return out


def ruggedize(pattern, spec: RuggedSpec):
    """Randomly delete boundary cells (those with a background face-neighbor).

    Each boundary foreground cell is flipped to background independently
    with the given probability; cells outside the grid count as background.
    Interior cells are never touched. Fully deterministic given the seed:
    the boundary cells in C order take the draws of
    ``np.random.default_rng(spec.seed).random()`` in turn. Returns a
    ``Padded`` for a ``Padded``, else a bool array.
    """
    if not 0.0 <= spec.probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    padded = _padded(pattern)
    buf = padded.buf
    # The buffer as one int, a cell to a byte: a face-neighbour at flat
    # offset +-s is the int shifted by 8s bits, and the padding stops a
    # shift from wrapping a cell into another line.
    cells = interior = int.from_bytes(buf, "little")
    for axis in range(padded.ndim):
        step = 8 * math.prod(padded.shape[axis + 1 :])
        interior &= cells >> step & cells << step
    boundary = (cells ^ interior).to_bytes(len(buf), "little")
    draws = _uniforms(spec.seed, boundary.count(1))
    for cell, draw in zip(re.finditer(b"\1", boundary), draws):
        if draw < spec.probability:
            buf[cell.start()] = 0
    return _as_given(padded, pattern)
