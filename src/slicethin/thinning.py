"""Sequential slice-based thinning of k-dimensional binary patterns.

Each iteration runs one deletion sub-cycle per scheduled axis. A sub-cycle
walks every 1xN slice along its axis, finds the maximal foreground runs, and
tests the run extremes (the front pixel with the highest index and the back
pixel with the lowest) for deletability. Deletions are applied immediately,
so later tests within the same pass see them.

``thin`` pads the pattern once with one background cell on every face, and
every sub-cycle of the run works in place on that one buffer. A sub-cycle
runs in C (``_kernel.c``, built and loaded by ``_native`` on the first
sub-cycle) where a C compiler builds it, and otherwise in the Python kernel
below, its readable reference.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

import numpy as np

from .pattern import _MAX_DIMS, DimensionError, as_pattern


class ScheduleError(ValueError):
    """Malformed schedule text or schedule/pattern mismatch."""


_SUB_RE = re.compile(r"(\d+)(fb|f|b)")


def _phases(schedule, k):
    """``thin``'s schedule as phases of (axis, directions), for a k-D pattern."""
    if schedule is None:
        return [[(axis, "fb") for axis in range(k - 1, -1, -1)]]
    phases = []
    for phase_text in schedule.split(";"):
        phase = []
        for sub_text in phase_text.split(","):
            m = _SUB_RE.fullmatch(sub_text.strip())
            if m is None:
                raise ScheduleError(f"bad sub-cycle {sub_text!r} in schedule {schedule!r}")
            axis = int(m.group(1))
            if axis >= k:
                raise ScheduleError(f"axis {axis} out of range for a {k}-D pattern")
            phase.append((axis, m.group(2)))
        phases.append(phase)
    return phases


@lru_cache(maxsize=_MAX_DIMS)
def _offsets(strides, axis):
    """Flat offsets around a cell p, for a run extreme along ``axis``.

    Returns the offsets of p's 3^k block, then one tuple for the plane ahead
    of p forward and one backward along ``axis``. Each holds, for every cell
    F of that plane, F's offset and the offsets of the cells in p's plane
    next to both p and F (p left out). Cached: ``thin`` asks for the same
    k keys on every iteration.
    """
    flat = {
        delta: sum(d * s for d, s in zip(delta, strides))
        for delta in product((-1, 0, 1), repeat=len(strides))
    }
    ahead = {1: [], -1: []}
    for f in flat:
        if f[axis]:
            # Cells next to both p (the origin) and F, in p's plane.
            near = [range(max(x - 1, -1), min(x + 1, 1) + 1) for x in f]
            near[axis] = (0,)
            ahead[f[axis]].append((flat[f], tuple(flat[c] for c in product(*near) if any(c))))
    return tuple(flat.values()), tuple(ahead[1]), tuple(ahead[-1])


def _deletable(buf, i, block, ahead):
    """Deletability of the run extreme at flat index ``i`` of a padded buffer.

    Retains end-points (<= 2 foreground cells in the 3^k block, p included).
    Otherwise every foreground cell F ahead of p must share a foreground
    neighbour with p in p's plane; if none does, p carries the connection
    to F and must stay.
    """
    if sum(buf[i + o] for o in block) <= 2:
        return False
    return all(not buf[i + f] or any(buf[i + c] for c in shared) for f, shared in ahead)


def thin_subcycle(padded, axis, directions):
    """One sequential deletion pass along ``axis``, in place on ``padded``:
    a C-order bool pattern with one background cell on every face, so every
    neighbour of a cell has a fixed flat offset and the padding ends every
    run. Returns the number of cells deleted.

    Slices are visited in lexicographic order of their fixed coordinates,
    runs in increasing index order. Within a run the front pixel is tested
    first; the back pixel is only considered while the cell just ahead of it
    is still foreground (otherwise the run is already a single survivor).
    """
    return (_native_subcycle() or _python_subcycle)(padded, axis, directions)


@lru_cache(maxsize=1)
def _native_subcycle():
    """The C sub-cycle, or None to run ``_python_subcycle``.

    Looked up on the first sub-cycle, not at import, because it may compile.
    """
    from . import _native

    return _native.load()


def _python_subcycle(view, axis, directions):
    """The sub-cycle over the padded pattern ``view``.

    Every run's back and front cell are listed before the first test, which
    is exact because a deletion removes an extreme of the run under test;
    the tests read the live buffer.
    """
    buf = memoryview(view).cast("B")
    strides = view.strides  # in cells: a bool is one byte
    step = strides[axis]
    block, ahead_f, ahead_b = _offsets(strides, axis)
    # Run extremes, lines in lexicographic order and runs in index order: a
    # back cell has background behind it, a front cell background ahead.
    # cells[..., 0] lies one step into its padded line.
    lines = np.moveaxis(view, axis, -1)
    cells = lines[..., 1:-1]
    backs, fronts = (
        (sum(c * s for c, s in zip(np.nonzero(m), cells.strides)) + step).tolist()
        for m in (cells & ~lines[..., :-2], cells & ~lines[..., 2:])
    )
    do_f = "f" in directions
    do_b = "b" in directions
    deleted = 0
    for back, front in zip(backs, fronts):
        if front == back:
            continue
        if do_f and _deletable(buf, front, block, ahead_f):
            buf[front] = 0
            deleted += 1
        if do_b and buf[back + step] and _deletable(buf, back, block, ahead_b):
            buf[back] = 0
            deleted += 1
    return deleted


def thin(pattern, schedule: str | None = None) -> tuple[np.ndarray, int]:
    """Thin a pattern to its skeleton.

    ``schedule`` is text: phases split by ';', sub-cycles by ','. A
    sub-cycle is an axis index plus 'f' (delete run fronts), 'b' (backs) or
    'fb' (both), e.g. "1fb,0fb" or "2fb;1fb,0fb". None runs every axis once,
    both directions, innermost axis first. Bad text, or an axis the pattern
    does not have, raises ``ScheduleError``; more than 8 dimensions raise
    ``DimensionError``.

    Runs each phase to convergence (an iteration executes every sub-cycle
    of the phase once; the phase stops after the first iteration that
    deletes nothing). Returns the skeleton and the total number of
    iterations across all phases.
    """
    arr = as_pattern(pattern)
    phases = _phases(schedule, arr.ndim)
    if arr.ndim > _MAX_DIMS:
        raise DimensionError(f"thinning supports at most {_MAX_DIMS} dimensions, got {arr.ndim}")
    # np.zeros, not np.pad, which would keep a Fortran-order input's order.
    padded = np.zeros(np.add(arr.shape, 2), bool)
    interior = (slice(1, -1),) * arr.ndim
    padded[interior] = arr
    iterations = 0
    for phase in phases:
        while True:
            iterations += 1
            if not sum(thin_subcycle(padded, axis, dirs) for axis, dirs in phase):
                break
    return padded[interior].copy(), iterations
