"""Skeleton quality metrics: unit-width convergence, size ratio, iterations.

The size ratio appears in the literature under both s_r and d_r; this
module uses ``s_r``. The unit-width measure is defined for 2D skeletons
only; reports for higher-dimensional patterns carry ``m_t = None`` and
serialize it as ``NA``.

Every metric is a ratio of counts that ``_counts`` takes in one pass over
the padded input and skeleton: ``slicethin_counts`` in C wherever a library
loads, ``_numpy_counts`` only where none loads. ``component_delta`` counts
the components of the same two ``Padded``, so ``evaluate`` pads each
pattern once.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from . import _native
from .pattern import _padded, component_count


class UndefinedMetricError(ValueError):
    """Metric is undefined for the given input (e.g. empty pattern)."""


class MetricsReport(
    namedtuple("MetricsReport", "s_r m_t n component_delta area_input area_skeleton")
):
    """One thinning result's metrics: ``s_r`` and ``m_t`` (floats, ``m_t``
    None above 2D), the iteration count ``n``, ``component_delta`` (the
    skeleton's component count less the input's), ``area_input`` and
    ``area_skeleton``."""

    __slots__ = ()

    def csv_row(self, algorithm: str) -> str:
        """One CSV row: floats to 9 significant digits, ints as is, None as NA."""
        cells = (
            "NA" if v is None else f"{v:.9g}" if isinstance(v, float) else str(v)
            for v in self
        )
        return ",".join((algorithm, *cells))


CSV_HEADER = ",".join(("algorithm", *MetricsReport._fields))


def _counts(inp, sk):
    """The input's area, the skeleton's area, the skeleton cells outside the
    input and, in 2D, the skeleton cells covered by an all-foreground 2x2
    window of the skeleton, of two ``Padded`` of one shape."""
    lib = _native.load()
    if lib is None:
        return _numpy_counts(inp.array(), sk.array())
    counts = _native.scratch(4)
    lib.slicethin_counts(inp.ptr, sk.ptr, inp.ndim, inp.sizes, _native.pointer(counts))
    return tuple(memoryview(counts).cast("n")[:4])


def _numpy_counts(inp, sk):
    """``_counts`` of the padded uint8 arrays ``inp`` and ``sk``, in numpy."""
    import numpy as np

    inp, sk = inp.view(bool), sk.view(bool)
    covered = 0
    if sk.ndim == 2:
        # Full windows by top-left corner; a cell is covered by the window at
        # itself or at its neighbour to the west, north or north-west.
        blocks = sk[:-1, :-1] & sk[1:, :-1] & sk[:-1, 1:] & sk[1:, 1:]
        covered = blocks[:-1, :-1] | blocks[1:, :-1] | blocks[:-1, 1:] | blocks[1:, 1:]
    areas = (np.count_nonzero(inp), np.count_nonzero(sk), np.count_nonzero(sk & ~inp))
    return (*map(int, areas), int(np.count_nonzero(covered)))


def _unit_width(area, covered):
    if area == 0:
        raise UndefinedMetricError("m_t is undefined for an empty skeleton")
    return 1 - covered / area


def _ratio(area_input, area_skeleton):
    if area_input == 0:
        raise UndefinedMetricError("s_r is undefined for an empty input")
    return area_skeleton / area_input


def evaluate(input_pattern, skeleton, iterations: int) -> MetricsReport:
    """Assemble the full report for one thinning result.

    ``s_r`` is the skeleton's foreground count over the input's. ``m_t``,
    the convergence to unit width, is 1 - (skeleton cells covered by an
    all-foreground 2x2 window / skeleton foreground); it is computed for 2D
    patterns only. Raises ``UndefinedMetricError`` for an empty input or an
    empty 2D skeleton, the latter even when the shapes differ, and
    ``ValueError`` for a shape mismatch or a negative ``iterations``. Warns
    when the skeleton is not a subset of the input foreground.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    inp, sk = _padded(input_pattern), _padded(skeleton)
    if inp.shape != sk.shape:
        if sk.ndim == 2:
            _unit_width(sk.buf.count(1), 0)
        raise ValueError(f"shape mismatch: {inp.pattern_shape} vs {sk.pattern_shape}")
    area_input, area_skeleton, outside, covered = _counts(inp, sk)
    if outside:
        warnings.warn("skeleton is not a subset of the input foreground", stacklevel=2)
    m_t = _unit_width(area_skeleton, covered) if sk.ndim == 2 else None
    return MetricsReport(
        s_r=_ratio(area_input, area_skeleton),
        m_t=m_t,
        n=int(iterations),
        component_delta=component_count(sk) - component_count(inp),
        area_input=area_input,
        area_skeleton=area_skeleton,
    )
