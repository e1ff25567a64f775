"""Skeleton quality metrics: unit-width convergence, size ratio, iterations.

The size ratio appears in the literature under both s_r and d_r; this
module uses ``s_r``. The unit-width measure is defined for 2D skeletons
only; reports for higher-dimensional patterns carry ``m_t = None`` and
serialize it as ``NA``.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .pattern import DimensionError, as_pattern, component_count


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


def measure_mt(skeleton) -> float:
    """Convergence to unit width: 1 - (2x2-covered pixels / foreground)."""
    arr = as_pattern(skeleton)
    if arr.ndim != 2:
        raise DimensionError("measure_mt is defined for 2D skeletons only")
    area = np.count_nonzero(arr)
    if area == 0:
        raise UndefinedMetricError("measure_mt is undefined for an empty skeleton")
    # Pixels covered by at least one all-foreground 2x2 window.
    blocks = np.pad(arr[:-1, :-1] & arr[1:, :-1] & arr[:-1, 1:] & arr[1:, 1:], 1)
    covered = blocks[:-1, :-1] | blocks[1:, :-1] | blocks[:-1, 1:] | blocks[1:, 1:]
    return float(1 - np.count_nonzero(covered) / area)


def size_ratio(input_pattern, skeleton) -> float:
    """Skeleton foreground count over input foreground count."""
    inp = as_pattern(input_pattern)
    sk = as_pattern(skeleton)
    if inp.shape != sk.shape:
        raise ValueError(f"shape mismatch: {inp.shape} vs {sk.shape}")
    area_in = np.count_nonzero(inp)
    if area_in == 0:
        raise UndefinedMetricError("size_ratio is undefined for an empty input")
    return float(np.count_nonzero(sk) / area_in)


def evaluate(input_pattern, skeleton, iterations: int) -> MetricsReport:
    """Assemble the full report for one thinning result.

    Warns when the skeleton is not a subset of the input foreground.
    ``m_t`` is only computed for 2D patterns. A negative ``iterations``
    raises ``ValueError``.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    inp = as_pattern(input_pattern)
    sk = as_pattern(skeleton)
    if inp.shape == sk.shape and np.any(sk & ~inp):
        warnings.warn("skeleton is not a subset of the input foreground", stacklevel=2)
    m_t = measure_mt(sk) if sk.ndim == 2 else None
    return MetricsReport(
        s_r=size_ratio(inp, sk),
        m_t=m_t,
        n=int(iterations),
        component_delta=component_count(sk) - component_count(inp),
        area_input=int(np.count_nonzero(inp)),
        area_skeleton=int(np.count_nonzero(sk)),
    )
