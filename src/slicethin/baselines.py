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
contour list: at first every foreground pixel with a background edge
neighbor (P2, P4, P6 or P8), found eight cells to a word, then the pixels of
the last list that were not deleted plus the foreground edge neighbors of
the pixels just deleted. A pixel whose four edge neighbors are all
foreground never needs listing: neither table deletes it (ZS needs AP = 1,
which leaves BP = 7, and GH needs CP = 1). Each sub-iteration codes the
listed pixels, then moves the marked ones to a list of their own and
deletes them. The C sweep codes a pixel by its 3x3 window, read as three
4-byte row loads (a byte at a time where a word does not hold its lowest
byte first), and looks it up in one of two 512-entry tables that each call
builds from these 256-entry ones, so the rules are stated only here and in
the tests. Only where no library loads, ``_numpy_sweep`` codes every pixel
on every sub-iteration; the two give the same skeletons and iteration
counts.
"""

from __future__ import annotations

from . import _native
from .pattern import DimensionError, _as_given, _padded

# (row, column) offsets of P2..P9.
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))

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
        iterations = lib.slicethin_sweep(padded.ptr, *padded.shape, b"".join(tables))
        if iterations < 0:
            raise MemoryError("no memory for the contour list of the ZS/GH driver")
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
    """Zhang-Suen thinning; returns (skeleton, iterations).

    A pixel is deleted when it has 2 to 6 foreground neighbours (BP = 2..6),
    exactly one background-to-foreground step in the sequence P2, P3, ...,
    P9, P2 (AP = 1), and, on the first sub-iteration (the southeast
    boundary), P2*P4*P6 = 0 and P4*P6*P8 = 0; on the second (the northwest
    boundary), P2*P4*P8 = 0 and P2*P6*P8 = 0.
    """
    return _thin(pattern, _ZS_TABLES)


def gh_thin(pattern) -> tuple[np.ndarray, int]:
    """Guo-Hall thinning; returns (skeleton, iterations).

    A pixel is deleted when exactly one of P2, P4, P6, P8 is background and
    has a foreground pixel in the pair after it: P3 or P4, P5 or P6, P7 or
    P8, P9 or P2 (connectivity number CP = 1); when NP = min(NP1, NP2) is 2
    or 3, where NP1 counts the pairs (P9, P2), (P3, P4), (P5, P6), (P7, P8)
    that hold a foreground pixel and NP2 the pairs (P2, P3), (P4, P5),
    (P6, P7), (P8, P9); and when (P2 | P3 | ~P5) & P4 is 0 on the first
    (odd) sub-iteration, (P6 | P7 | ~P9) & P8 on the second.
    """
    return _thin(pattern, _GH_TABLES)
