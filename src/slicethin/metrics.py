"""Skeleton quality metrics: unit-width convergence, size ratio, iterations.

The size ratio appears in the literature under both s_r and d_r; this
module uses ``s_r``. The unit-width measure is defined for 2D skeletons
only; reports for higher-dimensional patterns carry ``m_t = None`` and
serialize it as ``NA``.

Every metric is a ratio of counts that ``_counts`` takes in one pass over
the padded input and skeleton: ``slicethin_counts`` in C wherever a library
loads, ``_numpy_counts`` only where none loads.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, fields

from . import _native
from .pattern import DimensionError, _padded, component_count


class UndefinedMetricError(ValueError):
    """Metric is undefined for the given input (e.g. empty pattern)."""


@dataclass(frozen=True)
class MetricsReport:
    s_r: float
    m_t: float | None
    n: int
    component_delta: int
    area_input: int
    area_skeleton: int

    def csv_row(self, algorithm: str) -> str:
        """One CSV row: floats to 9 significant digits, ints as is, None as NA."""
        cells = (
            "NA" if v is None else f"{v:.9g}" if isinstance(v, float) else str(v)
            for v in astuple(self)
        )
        return ",".join((algorithm, *cells))


CSV_HEADER = ",".join(("algorithm", *(f.name for f in fields(MetricsReport))))


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
        raise UndefinedMetricError("measure_mt is undefined for an empty skeleton")
    return 1 - covered / area


def _ratio(area_input, area_skeleton):
    if area_input == 0:
        raise UndefinedMetricError("size_ratio is undefined for an empty input")
    return area_skeleton / area_input


def _same_shape(inp, sk):
    if inp.shape != sk.shape:
        raise ValueError(f"shape mismatch: {inp.pattern_shape} vs {sk.pattern_shape}")


def measure_mt(skeleton) -> float:
    """Convergence to unit width: 1 - (2x2-covered pixels / foreground)."""
    sk = _padded(skeleton)
    if sk.ndim != 2:
        raise DimensionError("measure_mt is defined for 2D skeletons only")
    _, area, _, covered = _counts(sk, sk)
    return _unit_width(area, covered)


def size_ratio(input_pattern, skeleton) -> float:
    """Skeleton foreground count over input foreground count."""
    inp, sk = _padded(input_pattern), _padded(skeleton)
    _same_shape(inp, sk)
    area_input, area_skeleton, _, _ = _counts(inp, sk)
    return _ratio(area_input, area_skeleton)


def evaluate(input_pattern, skeleton, iterations: int) -> MetricsReport:
    """Assemble the full report for one thinning result.

    Warns when the skeleton is not a subset of the input foreground.
    ``m_t`` is only computed for 2D patterns. A negative ``iterations``
    raises ``ValueError``.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    inp, sk = _padded(input_pattern), _padded(skeleton)
    if inp.shape != sk.shape:
        if sk.ndim == 2:
            measure_mt(sk)  # an empty 2D skeleton is reported before the mismatch
        _same_shape(inp, sk)
    area_input, area_skeleton, outside, covered = _counts(inp, sk)
    if outside:
        warnings.warn("skeleton is not a subset of the input foreground", stacklevel=2)
    m_t = _unit_width(area_skeleton, covered) if sk.ndim == 2 else None
    return MetricsReport(
        s_r=_ratio(area_input, area_skeleton),
        m_t=m_t,
        n=int(iterations),
        component_delta=component_count(skeleton) - component_count(input_pattern),
        area_input=area_input,
        area_skeleton=area_skeleton,
    )
