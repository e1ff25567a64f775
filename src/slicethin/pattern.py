"""k-dimensional binary pattern primitives.

Patterns are plain numpy bool arrays of 2 to ``_MAX_DIMS`` dimensions,
row-major, last axis fastest-varying; ``as_pattern`` is the one place that
caps k. Cells outside the array are background everywhere in this package.

Every kernel works in place on the buffer of ``_padded``: in C wherever
``_native.load`` gives a library, and in its Python or numpy twin only where
none loads. ``component_count`` runs ``slicethin_components``, a flood fill
over the runs along the last axis, or ``_numpy_components``, which hooks
the edges of one forward offset at a time; the two give the same counts.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _native

# The most cells a pattern may have when read from a file or generated.
_MAX_CELLS = 10**8
# The most dimensions a pattern may have: the C kernels' fixed arrays
# (MAX_DIMS, and MAX_PLANE = 3^(k-1) plane cells, in _kernel.c) are sized for it.
_MAX_DIMS = 8


class DimensionError(ValueError):
    """The pattern's dimensionality is not supported by the operation."""


def as_pattern(data) -> np.ndarray:
    """Validate and convert array-like input to a bool pattern array.

    Accepts bool or 0/1 integer arrays of 2 to ``_MAX_DIMS`` dimensions.
    """
    arr = np.asarray(data)
    if not 2 <= arr.ndim <= _MAX_DIMS:
        raise DimensionError(f"pattern must have 2 to {_MAX_DIMS} dimensions, got {arr.ndim}")
    if arr.dtype != bool:
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("pattern cells must be exactly 0 or 1")
        arr = arr.astype(bool)
    return arr


def _padded(arr):
    """The kernels' buffer: a C-order uint8 copy of ``arr`` with one background
    cell on every face, so every neighbour of a cell has a fixed flat offset
    and the padding ends every run."""
    # np.zeros, not np.pad, which would keep a Fortran-order input's order.
    padded = np.zeros(np.add(arr.shape, 2), np.uint8)
    padded[(slice(1, -1),) * arr.ndim] = arr
    return padded


def component_count(pattern) -> int:
    """Count foreground components under (3^k - 1)-adjacency (8-connectivity in 2D)."""
    padded = _padded(as_pattern(pattern))
    lib = _native.load()
    if lib is None:
        return _numpy_components(padded)
    # One stack entry per run. Every line starts with a padding zero, so
    # the run starts of the flat buffer are those of its lines.
    flat = padded.ravel()
    stack = np.empty(np.count_nonzero(flat[1:] > flat[:-1]), np.intp)
    return lib.slicethin_components(padded.ctypes.data, padded.ndim, padded.ctypes.shape,
                                    stack.ctypes.data)


def _numpy_components(padded):
    """Count components of the padded pattern by edge hooking.

    Every cell starts as its own root. For one forward offset at a time,
    each foreground pair it links with different roots hooks the larger root
    onto the smaller (``np.minimum.at``), and pointer jumping then points
    every foreground cell at its root again. Rounds over all offsets repeat
    until none hooks. Only one offset's pairs are held at a time, so memory
    stays O(cells).
    """
    fg = padded.view(bool).ravel()
    cells = np.flatnonzero(fg)
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=padded.ndim)))
    offsets = steps @ padded.strides  # one byte a cell
    root = np.arange(fg.size)
    hooked = True
    while hooked:
        hooked = False
        for o in offsets[offsets > 0]:
            # The padding keeps cells + o in bounds.
            lo = cells[fg[cells + o]]
            a, b = root[lo], root[lo + o]
            differ = a != b
            if not differ.any():
                continue
            hooked = True
            np.minimum.at(root, np.maximum(a, b)[differ], np.minimum(a, b)[differ])
            parent = root[cells]
            while True:
                jumped = root[parent]
                if np.array_equal(jumped, parent):
                    break
                root[cells] = parent = jumped
    return int(np.count_nonzero(root[cells] == cells))
