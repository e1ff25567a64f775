"""Sequential slice-based thinning of k-dimensional binary patterns.

Each iteration runs one deletion sub-cycle per scheduled axis. A sub-cycle
walks every 1xN slice along its axis, finds the maximal foreground runs, and
tests the run extremes (the front pixel with the highest index and the back
pixel with the lowest) for deletability. Deletions are applied immediately,
so later tests within the same pass see them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

import numpy as np

from .pattern import as_pattern

FORWARD = "forward"
BACKWARD = "backward"


class ScheduleError(ValueError):
    """Malformed schedule text or schedule/pattern mismatch."""


_SUB_RE = re.compile(r"(\d+)(fb|f|b)")


@dataclass(frozen=True)
class Schedule:
    """Ordered phases of (axis, directions) sub-cycles.

    Each phase is iterated to convergence before the next phase starts.
    ``directions`` is "f" (front/forward deletion only), "b" (back/backward
    only) or "fb" (both).
    """

    phases: tuple[tuple[tuple[int, str], ...], ...]

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Parse schedule text: phases split by ';', sub-cycles by ','.

        Each sub-cycle is an axis index followed by 'f', 'b' or 'fb',
        e.g. "1fb,0fb" or "2fb;1fb,0fb".
        """
        phases = []
        for phase_text in text.split(";"):
            subs = []
            for sub_text in phase_text.split(","):
                m = _SUB_RE.fullmatch(sub_text.strip())
                if m is None:
                    raise ScheduleError(f"bad sub-cycle {sub_text!r} in schedule {text!r}")
                subs.append((int(m.group(1)), m.group(2)))
            if not subs:
                raise ScheduleError(f"empty phase in schedule {text!r}")
            phases.append(tuple(subs))
        if not phases:
            raise ScheduleError("empty schedule")
        return cls(tuple(phases))

    @classmethod
    def default(cls, k: int) -> "Schedule":
        """One phase, every axis once, both directions, innermost axis first."""
        return cls((tuple((axis, "fb") for axis in range(k - 1, -1, -1)),))

    def validate(self, k: int) -> None:
        for phase in self.phases:
            for axis, _ in phase:
                if not 0 <= axis < k:
                    raise ScheduleError(f"axis {axis} out of range for a {k}-D pattern")

    def __str__(self) -> str:
        return ";".join(
            ",".join(f"{axis}{dirs}" for axis, dirs in phase) for phase in self.phases
        )


def is_endpoint(pattern, p) -> bool:
    """True when p's 3^k neighborhood holds <= 2 foreground cells (p included)."""
    arr = as_pattern(pattern)
    p = tuple(int(x) for x in p)
    if not arr[p]:
        raise ValueError(f"is_endpoint called on background cell {p}")
    return _block_sum(arr, p) <= 2


def _block_sum(arr, p):
    sl = tuple(
        slice(max(pi - 1, 0), min(pi + 1, ni - 1) + 1) for pi, ni in zip(p, arr.shape)
    )
    return int(arr[sl].sum())


def _deletable(arr, p, axis, sign):
    """Deletability of a run extreme; sign +1 tests a front pixel, -1 a back.

    Retains end-points. Otherwise, for every foreground neighbor F in the
    adjacent hyperplane ahead of p (along axis, in sign direction), the
    intersection of F's trailing neighbors with p's neighborhood minus p
    must contain at least one foreground cell; an all-background
    intersection means p carries the connection to F and must stay.
    """
    if _block_sum(arr, p) <= 2:
        return False
    shape = arr.shape
    fa = p[axis] + sign
    if not 0 <= fa < shape[axis]:
        return True
    other = [d for d in range(arr.ndim) if d != axis]
    ranges = [range(max(p[d] - 1, 0), min(p[d] + 1, shape[d] - 1) + 1) for d in other]
    for rest in product(*ranges):
        f = list(rest)
        f.insert(axis, fa)
        if not arr[tuple(f)]:
            continue
        # The intersection lives in p's own hyperplane along axis: every
        # shared cell strictly behind F has axis index exactly p[axis].
        box = []
        for d in range(arr.ndim):
            if d == axis:
                box.append(p[axis])
            else:
                lo = max(p[d] - 1, f[d] - 1, 0)
                hi = min(p[d] + 1, f[d] + 1, shape[d] - 1)
                box.append(slice(lo, hi + 1))
        # p itself always falls inside the box; subtract it.
        if int(arr[tuple(box)].sum()) - 1 == 0:
            return False
    return True


def contour_deletable(pattern, p, axis: int, direction: str) -> bool:
    """Whether a run's contour pixel may be deleted.

    ``direction`` is "forward" for the run's front pixel or "backward" for
    its back pixel. The next cell along the axis in that direction must be
    background (or out of bounds), i.e. p really is the run extreme.
    """
    arr = as_pattern(pattern)
    p = tuple(int(x) for x in p)
    if not arr[p]:
        raise ValueError(f"contour_deletable called on background cell {p}")
    if direction == FORWARD:
        sign = 1
    elif direction == BACKWARD:
        sign = -1
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    nxt = p[axis] + sign
    if 0 <= nxt < arr.shape[axis] and arr[p[:axis] + (nxt,) + p[axis + 1 :]]:
        raise ValueError(f"{p} is not the run's {direction} contour along axis {axis}")
    return _deletable(arr, p, axis, sign)


def thin_subcycle(pattern: np.ndarray, axis: int, directions: str = "fb") -> bool:
    """One sequential deletion pass along ``axis``, in place.

    Slices are visited in lexicographic order of their fixed coordinates,
    runs in increasing index order. Within a run the front pixel is tested
    first; the back pixel is only considered while the cell just ahead of it
    is still foreground (otherwise the run is already a single survivor).
    Returns whether any cell was deleted.
    """
    arr = pattern
    if arr.dtype != bool or arr.ndim < 2:
        raise ValueError("thin_subcycle requires a mutable bool pattern array")
    if not 0 <= axis < arr.ndim:
        raise ValueError(f"axis {axis} out of range")
    n = arr.shape[axis]
    other_shape = arr.shape[:axis] + arr.shape[axis + 1 :]
    do_f = "f" in directions
    do_b = "b" in directions
    changed = False
    for fixed in np.ndindex(*other_shape):
        idx = fixed[:axis] + (slice(None),) + fixed[axis:]
        line = arr[idx]
        y = 0
        while y < n:
            if not line[y]:
                y += 1
                continue
            back = y
            while y < n and line[y]:
                y += 1
            front = y - 1
            if front == back:
                continue
            if do_f:
                pf = fixed[:axis] + (front,) + fixed[axis:]
                if _deletable(arr, pf, axis, 1):
                    line[front] = False
                    changed = True
            if do_b and line[back + 1]:
                pb = fixed[:axis] + (back,) + fixed[axis:]
                if _deletable(arr, pb, axis, -1):
                    line[back] = False
                    changed = True
    return changed


def thin(pattern, schedule: Schedule | str | None = None) -> tuple[np.ndarray, int]:
    """Thin a pattern to its skeleton.

    Runs each schedule phase to convergence (an iteration executes every
    sub-cycle of the phase once; the phase stops after the first iteration
    that deletes nothing). Returns the skeleton and the total number of
    iterations across all phases.
    """
    arr = as_pattern(pattern).copy()
    if schedule is None:
        schedule = Schedule.default(arr.ndim)
    elif isinstance(schedule, str):
        schedule = Schedule.parse(schedule)
    schedule.validate(arr.ndim)
    iterations = 0
    for phase in schedule.phases:
        while True:
            iterations += 1
            changed = False
            for axis, dirs in phase:
                if thin_subcycle(arr, axis, dirs):
                    changed = True
            if not changed:
                break
    return arr, iterations
