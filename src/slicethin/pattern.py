"""k-dimensional binary pattern primitives.

Patterns are plain numpy bool arrays of ndim >= 2, row-major, last axis
fastest-varying. Coordinates are tuples of python ints. Cells outside the
array are treated as background everywhere in this package.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

Coord = tuple[int, ...]


class DimensionError(ValueError):
    """The pattern's dimensionality is not supported by the operation."""


def as_pattern(data) -> np.ndarray:
    """Validate and convert array-like input to a bool pattern array.

    Accepts bool arrays or integer arrays containing only 0/1.
    """
    arr = np.asarray(data)
    if arr.ndim < 2:
        raise DimensionError(f"pattern must have at least 2 dimensions, got {arr.ndim}")
    if arr.dtype != bool:
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("pattern cells must be exactly 0 or 1")
        arr = arr.astype(bool)
    return arr


def foreground_count(pattern) -> int:
    return int(np.count_nonzero(as_pattern(pattern)))


def component_count(pattern) -> int:
    """Count foreground components under (3^k - 1)-adjacency (8-connectivity in 2D)."""
    arr = as_pattern(pattern)
    structure = np.ones((3,) * arr.ndim, dtype=bool)
    _, count = ndimage.label(arr, structure=structure)
    return count


def non_unit_width_pixels(pattern) -> set[Coord]:
    """Foreground pixels covered by at least one all-foreground 2x2 window.

    This is the union of the four corner-anchored 2x2 hit-or-miss responses
    used by the unit-width convergence metric. 2D patterns only.
    """
    arr = as_pattern(pattern)
    if arr.ndim != 2:
        raise DimensionError("non_unit_width_pixels requires a 2D pattern")
    blocks = arr[:-1, :-1] & arr[1:, :-1] & arr[:-1, 1:] & arr[1:, 1:]
    marked = np.zeros_like(arr)
    marked[:-1, :-1] |= blocks
    marked[1:, :-1] |= blocks
    marked[:-1, 1:] |= blocks
    marked[1:, 1:] |= blocks
    return {tuple(map(int, c)) for c in np.argwhere(marked)}
