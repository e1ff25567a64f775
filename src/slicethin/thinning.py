"""Sequential slice-based thinning of k-dimensional binary patterns.

Each iteration runs one deletion sub-cycle per scheduled axis. A sub-cycle
walks every 1xN slice along its axis, finds the maximal foreground runs, and
tests the run extremes (the front pixel with the highest index and the back
pixel with the lowest) for deletability. Deletions are applied immediately,
so later tests within the same pass see them.

``thin`` pads the pattern once (``pattern._padded``) and works in place on
that one ``Padded`` buffer. Wherever a library loads (``_native.load``),
the whole run is one call of ``slicethin_thin``, which keeps each axis's
runs from one of its sub-cycles to the next and scans a line again only
after a sub-cycle along another axis has deleted one of its cells. Only
where none loads does ``thin`` run its phases here, one ``thin_subcycle``
at a time: the Python kernel, the readable reference. Both apply the same
plane test (``_deletable``) and give the same skeletons and iteration
counts.
"""

from __future__ import annotations

import itertools
import re

from . import _native
from .pattern import _as_given, _padded


class ScheduleError(ValueError):
    """Malformed schedule text or schedule/pattern mismatch."""


_SUB_RE = re.compile(r"([0-9]+)(fb|f|b)")  # \d would take "١"
# A sub-cycle's directions as slicethin_thin takes them: bit 1 fronts, bit 2 backs.
_DIRECTIONS = {"f": 1, "b": 2, "fb": 3}


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


def _offsets(strides, axis):
    """The plane cube of a run extreme p along ``axis``, and its dilation.

    Returns the flat offsets of the 3^(k-1) cells of p's plane within p's
    3^k block, the last plane axis fastest (so p is the middle one), and,
    per plane axis in turn, the index triples (q - t, q, q + t) of the lines
    of that cube along the axis.
    """
    plane = [0]
    for d, s in enumerate(strides):
        if d != axis:
            plane = [o + x for o in plane for x in (-s, 0, s)]
    ts = [3**j for j in range(len(strides) - 1)]  # the cube's own strides
    return plane, [(q - t, q, q + t) for t in ts for q in range(len(plane)) if q // t % 3 == 1]


def _deletable(buf, i, plane, triples, ahead):
    """Deletability of the run extreme p at flat index ``i`` of a padded
    buffer, whose plane ahead lies ``ahead`` cells on.

    Retains end-points (<= 2 foreground cells in the 3^k block, p included).
    Otherwise every foreground cell F of the plane ahead must lie in the
    one-cell box dilation of p's plane with p left out; if F does not, it
    shares no foreground neighbour with p there, so p carries the
    connection to F and must stay.
    """
    if sum(buf[i + o - ahead] + buf[i + o] + buf[i + o + ahead] for o in plane) <= 2:
        return False
    near = [buf[i + o] for o in plane]
    near[len(near) // 2] = 0
    for a, b, c in triples:
        x, y, z = near[a], near[b], near[c]
        near[a], near[b], near[c] = x | y, x | y | z, y | z
    return all(near[j] or not buf[i + ahead + o] for j, o in enumerate(plane))


def thin_subcycle(padded, axis, directions):
    """One sequential deletion pass along ``axis``, in place on ``padded``,
    the ``Padded`` of ``pattern._padded``: the Python kernel. Returns the
    number of cells deleted.

    Slices are visited in lexicographic order of their fixed coordinates,
    runs in increasing index order. Within a run the front pixel is tested
    first; the back pixel is only considered while the cell just ahead of it
    is still foreground (otherwise the run is already a single survivor).
    Every run's back and front cell are listed before the first test, which
    is exact because a deletion removes an extreme of the run under test;
    the tests read the live buffer.
    """
    import numpy as np

    view = padded.array()
    buf = memoryview(view).cast("B")
    strides = view.strides  # in cells: a uint8 is one byte
    step = strides[axis]
    plane, triples = _offsets(strides, axis)
    # Run extremes, lines in lexicographic order and runs in index order: a
    # back cell has background behind it, a front cell background ahead.
    # cells[..., 0] lies one step into its padded line.
    lines = np.moveaxis(view.view(bool), axis, -1)
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
        if do_f and _deletable(buf, front, plane, triples, step):
            buf[front] = 0
            deleted += 1
        if do_b and buf[back + step] and _deletable(buf, back, plane, triples, -step):
            buf[back] = 0
            deleted += 1
    return deleted


def thin(pattern, schedule: str | None = None) -> tuple[np.ndarray, int]:
    """Thin a pattern to its skeleton.

    ``schedule`` is text: phases split by ';', sub-cycles by ','. A
    sub-cycle is an axis index plus 'f' (delete run fronts), 'b' (backs) or
    'fb' (both), e.g. "1fb,0fb" or "2fb;1fb,0fb". None runs every axis once,
    both directions, innermost axis first. Bad text, or an axis the pattern
    does not have, raises ``ScheduleError``.

    Runs each phase to convergence (an iteration executes every sub-cycle
    of the phase once; the phase stops after the first iteration that
    deletes nothing). Returns the skeleton and the total number of
    iterations across all phases. Raises ``MemoryError`` where the C
    kernel cannot allocate its run lists.
    """
    padded = _padded(pattern)
    phases = _phases(schedule, padded.ndim)
    lib = _native.load()
    if lib is not None:
        subs = [n for phase in phases for axis, dirs in phase for n in (axis, _DIRECTIONS[dirs])]
        ends = list(itertools.accumulate(map(len, phases)))
        iterations = lib.slicethin_thin(padded.ptr, padded.ndim, padded.sizes,
                                        _native.ints(subs), _native.ints(ends), len(phases))
        if iterations < 0:
            raise MemoryError("no memory for the run lists of the nd kernel")
        return _as_given(padded, pattern), iterations
    iterations = 0
    for phase in phases:
        while True:
            iterations += 1
            if not sum(thin_subcycle(padded, axis, dirs) for axis, dirs in phase):
                break
    return _as_given(padded, pattern), iterations
