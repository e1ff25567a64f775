"""Zhang-Suen and Guo-Hall parallel thinning baselines for 2D patterns.

Both use the mark-then-sweep scheme: each sub-iteration marks deletable
pixels against the frozen pre-sub-iteration pattern, then deletes them all
at once; iterations repeat until neither sub-iteration deletes. Neighbor
layout (row x grows downward, column y rightward):

    P9 P2 P3
    P8 P1 P4
    P7 P6 P5

Whether P1 is deletable depends only on P2..P9, so each rule is a scalar
predicate per sub-iteration, tabulated over the 256 neighbor codes (bit i
of the code is P(i+2)): one 256-byte table per sub-iteration, held as a
bytes literal so that import builds nothing (the tests rebuild the tables
from the rules).

One driver applies the tables, in place on the buffer of ``pattern._padded``.
It runs in C (``slicethin_sweep`` of the library that ``_native.load`` gives
on the first call) wherever a library loads, coding only the pixels of a
contour list: at first every foreground pixel with a background 8-neighbor,
then the pixels of the last list that are still foreground plus the
foreground neighbors of the pixels just deleted. A pixel whose 8 neighbors
are all foreground never needs listing: it has BP = 8 for ZS and CP = 0 for
GH, so neither rule deletes it. Only where no library loads,
``_numpy_sweep`` codes every pixel on every sub-iteration; the two give the
same skeletons and iteration counts.
"""

from __future__ import annotations

from . import _native
from .pattern import DimensionError, _as_given, _padded, _scratch

# (row, column) offsets of P2..P9.
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _zs_deletable(first, p2, p3, p4, p5, p6, p7, p8, p9):
    """Zhang-Suen: 2 <= BP <= 6 and AP = 1, plus P2*P4*P6 = 0 and
    P4*P6*P8 = 0 on the first sub-iteration (southeast boundary), or
    P2*P4*P8 = 0 and P2*P6*P8 = 0 on the second (northwest boundary).
    """
    seq = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
    bp = sum(seq[:-1])
    ap = sum(not a and b for a, b in zip(seq, seq[1:]))
    if first:
        corner = (p2 and p4 and p6) or (p4 and p6 and p8)
    else:
        corner = (p2 and p4 and p8) or (p2 and p6 and p8)
    return 2 <= bp <= 6 and ap == 1 and not corner


def _gh_deletable(first, p2, p3, p4, p5, p6, p7, p8, p9):
    """Guo-Hall: connectivity number CP = 1, NP = min(NP1, NP2) in {2, 3},
    and a zero directional term: (P2|P3|~P5) & P4 on the first (odd)
    sub-iteration, (P6|P7|~P9) & P8 on the second.
    """
    cp = (
        (not p2 and (p3 or p4))
        + (not p4 and (p5 or p6))
        + (not p6 and (p7 or p8))
        + (not p8 and (p9 or p2))
    )
    np1 = (p9 or p2) + (p3 or p4) + (p5 or p6) + (p7 or p8)
    np2 = (p2 or p3) + (p4 or p5) + (p6 or p7) + (p8 or p9)
    if first:
        directional = (p2 or p3 or not p5) and p4
    else:
        directional = (p6 or p7 or not p9) and p8
    return cp == 1 and min(np1, np2) in (2, 3) and not directional


# Per rule, a 256-byte table per sub-iteration: byte c is whether the rule
# deletes a pixel of neighbor code c.
_ZS_TABLES = (
    b"\0\0\0\1\0\0\1\1\0\0\0\0\1\0\1\1\0\0\0\0\0\0\0\0\1\0\0\0\1\0\1\0"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0\1\0\1\0"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0"
    b"\0\1\0\1\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\1\1\0\1\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\1\1\0\1\0\0\0\1\0\0\0\0\0\0\0\0\1\1\0\1\0\0\0\0\1\1\0\0\0\0\0\0",
    b"\0\0\0\1\0\0\1\1\0\0\0\0\1\0\1\1\0\0\0\0\0\0\0\0\1\0\0\0\1\0\1\1"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0\1\0\1\1"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0\1\0\1\0"
    b"\0\1\0\1\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\1"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\1\1\0\1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\1\1\0\1\0\0\0\0\0\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0\1\0\0\0\1\0\0\0",
)
_GH_TABLES = (
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\1\0\0\0"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\1\0\0\0\1\0\0\0"
    b"\0\1\0\1\0\0\0\0\0\0\0\0\0\0\0\0\1\1\0\1\0\0\0\0\1\1\0\0\1\0\0\0"
    b"\0\1\0\1\0\0\0\0\0\0\0\0\0\0\0\0\1\1\0\1\0\0\0\0\1\1\0\0\1\0\0\0"
    b"\0\0\0\1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\0\1\0\1\0\0\0\0\0\0\0\0\0\0\0\0\1\1\0\1\0\0\0\0\1\1\0\0\1\0\0\0"
    b"\1\1\0\1\0\0\0\0\0\0\0\0\0\0\0\0\1\1\0\1\0\0\0\0\1\1\0\0\1\0\0\0",
    b"\0\0\0\0\0\1\0\1\0\0\0\0\0\1\1\1\0\0\0\0\1\1\1\1\0\0\0\0\1\1\1\1"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\1\1\1\1\1\0\0\0\1\1\1\1"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\0\0\0\1\0\1\0\1\0\0\0\0\0\1\0\1\0\0\0\0\0\1\0\1\0\0\0\0\0\1\0\1"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\0\1\0\1\0\1\0\1\0\0\0\0\0\1\0\1\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"
    b"\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0",
)


def _thin(pattern, tables):
    padded = _padded(pattern)
    if padded.ndim != 2:
        raise DimensionError("baseline thinning supports 2D patterns only")
    lib = _native.load()
    if lib is None:
        iterations = _numpy_sweep(padded.array(), tables)
    else:
        rows, cols = padded.shape
        # The contour list: one entry per pattern cell at most.
        scratch = _scratch((rows - 2) * (cols - 2), pattern)
        iterations = lib.slicethin_sweep(padded.ptr, rows, cols, b"".join(tables), scratch)
    return _as_given(padded, pattern), iterations


def _numpy_sweep(padded, tables):
    """The sweep, coding every pixel, in place on the padded uint8 array;
    returns the number of iterations, the last one deleting nothing."""
    import numpy as np

    tables = [np.frombuffer(table, bool) for table in tables]
    h, w = padded.shape[0] - 2, padded.shape[1] - 2
    # P2..P9 of every pixel, as views: each sub-iteration reads the live image.
    ring = [padded[1 + dx : 1 + dx + h, 1 + dy : 1 + dy + w] for dx, dy in _RING]
    img = padded.view(bool)[1:-1, 1:-1]
    iterations = 0
    while True:
        iterations += 1
        changed = False
        for table in tables:
            code = sum(p * np.uint8(1 << bit) for bit, p in enumerate(ring))
            cond = img & table[code]
            if cond.any():
                img[cond] = False
                changed = True
        if not changed:
            return iterations


def zs_thin(pattern) -> tuple[np.ndarray, int]:
    """Zhang-Suen thinning (rule: _zs_deletable); returns (skeleton, iterations)."""
    return _thin(pattern, _ZS_TABLES)


def gh_thin(pattern) -> tuple[np.ndarray, int]:
    """Guo-Hall thinning (rule: _gh_deletable); returns (skeleton, iterations)."""
    return _thin(pattern, _GH_TABLES)
