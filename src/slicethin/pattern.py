"""k-dimensional binary pattern primitives.

Patterns are plain numpy bool arrays of ndim >= 2, row-major, last axis
fastest-varying. Cells outside the array are treated as background
everywhere in this package.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

# The most cells a pattern may have when read from a file or generated.
_MAX_CELLS = 10**8
# The most dimensions a pattern file may declare and the nd kernel accepts:
# the C kernel's fixed arrays (MAX_DIMS, and MAX_PLANE = 3^(k-1) plane cells,
# in _kernel.c) are sized for it.
_MAX_DIMS = 8


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


def component_count(pattern) -> int:
    """Count foreground components under (3^k - 1)-adjacency (8-connectivity in 2D)."""
    arr = as_pattern(pattern)
    structure = np.ones((3,) * arr.ndim, dtype=bool)
    _, count = ndimage.label(arr, structure=structure)
    return count
