"""k-dimensional binary pattern primitives.

Patterns are plain numpy bool arrays of 2 to ``_MAX_DIMS`` dimensions,
row-major, last axis fastest-varying; ``as_pattern`` is the one place that
caps k. Cells outside the array are background everywhere in this package.

Every kernel works in place on the buffer of a ``Padded``: in C wherever
``_native.load`` gives a library, and in its Python or numpy twin only where
none loads. A library call pads the array it is given with numpy
(``_padded``); the CLI reads its files straight into a ``Padded`` and
writes them from one (``_pad``, ``_unpad``), so that it imports no numpy.
``_relayout`` is the one walk over the blocks of an axis in a C-order
buffer: ``_pad`` and ``_unpad`` move every line with it, and
``shapes._check_margin`` takes each face of a solid with it.
``component_count`` runs ``slicethin_components``, a flood fill over the
runs along the last axis that mallocs its own stack, or
``_numpy_components``, which hooks the edges of one forward offset at a
time; the two give the same counts, on an array or a ``Padded`` alike.

numpy is imported where an array is built or taken, not at import.
"""

from __future__ import annotations

import math

from . import _native

# The most cells a pattern may have when read from a file or generated.
_MAX_CELLS = 10**8
# The most dimensions a pattern may have: the C kernels' fixed arrays
# (MAX_DIMS, and MAX_PLANE = 3^(k-1) plane cells, in _kernel.c) are sized for it.
_MAX_DIMS = 8


class DimensionError(ValueError):
    """The pattern's dimensionality is not supported by the operation."""


def as_pattern(data):
    """Validate and convert array-like input to a bool pattern array.

    Accepts bool or 0/1 integer arrays of 2 to ``_MAX_DIMS`` dimensions.
    """
    import numpy as np

    arr = np.asarray(data)
    if not 2 <= arr.ndim <= _MAX_DIMS:
        raise DimensionError(f"pattern must have 2 to {_MAX_DIMS} dimensions, got {arr.ndim}")
    if arr.dtype != bool:
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("pattern cells must be exactly 0 or 1")
        arr = arr.astype(bool)
    return arr


class Padded:
    """A pattern as every kernel takes it: its cells in C order, one byte of
    0 or 1 each, in a ``bytearray`` with one background cell on every face,
    so every neighbour of a cell has a fixed flat offset and the padding ends
    every run.

    ``shape``, ``ndim`` and ``size`` are those of the padded buffer, as of
    the array ``array()`` views it as; ``ptr`` and ``sizes`` are the kernels'
    ``buf`` and ``shape`` arguments, built once.
    """

    def __init__(self, buf: bytearray, shape):
        self.buf = buf
        self.shape = tuple(shape)
        self.ndim = len(self.shape)
        self.size = len(buf)
        self.ptr = _native.pointer(buf)
        self.sizes = _native.shape(self.shape)

    @property
    def pattern_shape(self):
        """The shape of the pattern, without the padding."""
        return tuple(n - 2 for n in self.shape)

    def copy(self):
        return Padded(bytearray(self.buf), self.shape)

    def array(self):
        """The padded buffer as a uint8 array over the same bytes."""
        import numpy as np

        return np.frombuffer(self.buf, np.uint8).reshape(self.shape)

    def unpadded(self):
        """The pattern as a new C-order bool array."""
        return self.array().view(bool)[(slice(1, -1),) * self.ndim].copy()

    def __array__(self, dtype=None, copy=None):
        # For numpy functions given a Padded, such as a tracer's count of cells.
        arr = self.unpadded()
        return arr if dtype is None else arr.astype(dtype)


def _padded(pattern) -> Padded:
    """A fresh ``Padded`` of a pattern, for a kernel to work on in place: a
    copy of a ``Padded``, or an array padded with numpy."""
    if isinstance(pattern, Padded):
        return pattern.copy()
    import numpy as np

    arr = as_pattern(pattern)
    shape = tuple(n + 2 for n in arr.shape)
    buf = bytearray(math.prod(shape))
    # The bool cells through a uint8 view: the same bytes, copied without a cast.
    np.frombuffer(buf, np.uint8).reshape(shape)[(slice(1, -1),) * arr.ndim] = arr.view(np.uint8)
    return Padded(buf, shape)


def _as_given(padded, pattern):
    """A result held in ``padded``, in the form the caller gave ``pattern``:
    a ``Padded`` for a ``Padded``, else a bool array."""
    return padded if isinstance(pattern, Padded) else padded.unpadded()


def _relayout(data, lines, length, src, dst):
    """A new zeroed bytearray of ``lines * dst[1]`` bytes, into which line i
    of ``length`` bytes at ``src[0] + i * src[1]`` of ``data`` is copied to
    ``dst[0] + i * dst[1]``: one slice assignment per line, or one strided
    one per byte of a line, of ``data`` itself (a strided memoryview copies
    a byte at a time), where there are more lines than bytes in one."""
    out = bytearray(lines * dst[1])
    if lines <= length:
        view = memoryview(data)
        for i in range(lines):
            s, d = src[0] + i * src[1], dst[0] + i * dst[1]
            out[d : d + length] = view[s : s + length]
    else:
        for j in range(length):
            out[dst[0] + j :: dst[1]] = data[src[0] + j :: src[1]]
    return out


def _axes(shape):
    """Per axis d, with the axes after d padded and those before it not: the
    number of lines along d, a line's length and one step along d, which is
    also the size of a padding block."""
    for d, n in enumerate(shape):
        inner = math.prod(m + 2 for m in shape[d + 1 :])
        yield math.prod(shape[:d]), n * inner, inner


def _pad(bits: bytearray, shape) -> Padded:
    """The cells ``bits`` of a pattern of ``shape``, C order, padded by bytes
    operations alone: one axis at a time, from the last, each of its lines
    gets one padding block at either end."""
    for lines, length, inner in reversed(list(_axes(shape))):
        bits = _relayout(bits, lines, length, (0, length), (inner, length + 2 * inner))
    return Padded(bits, [n + 2 for n in shape])


def _unpad(padded: Padded) -> bytearray:
    """The cells of ``padded``'s pattern in C order: ``_pad`` undone."""
    data = padded.buf
    for lines, length, inner in _axes(padded.pattern_shape):
        data = _relayout(data, lines, length, (inner, length + 2 * inner), (0, length))
    return data


def component_count(pattern) -> int:
    """Count foreground components under (3^k - 1)-adjacency (8-connectivity in 2D).

    Raises ``MemoryError`` where the C kernel cannot allocate its stack."""
    padded = _padded(pattern)
    lib = _native.load()
    if lib is None:
        return _numpy_components(padded.array())
    count = lib.slicethin_components(padded.ptr, padded.ndim, padded.sizes)
    if count < 0:
        raise MemoryError("no memory for the stack of the component count")
    return count


def _numpy_components(padded):
    """Count components of the padded pattern by edge hooking.

    Every cell starts as its own root. For one forward offset at a time,
    each foreground pair it links with different roots hooks the larger root
    onto the smaller (``np.minimum.at``), and pointer jumping then points
    every foreground cell at its root again. Rounds over all offsets repeat
    until none hooks. Only one offset's pairs are held at a time, so memory
    stays O(cells).
    """
    import itertools

    import numpy as np

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
