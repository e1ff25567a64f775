"""Sequential slice-based thinning of k-dimensional binary patterns."""

from .baselines import gh_thin, zs_thin
from .formats import (
    export_voxels_csv,
    read_ndbin,
    read_pbm,
    write_ndbin,
    write_pbm,
)
from .metrics import MetricsReport, evaluate, measure_mt, size_ratio
from .pattern import as_pattern, component_count
from .shapes import RuggedSpec, ShapeSpec, generate, ruggedize
from .thinning import thin

__all__ = [
    "MetricsReport",
    "RuggedSpec",
    "ShapeSpec",
    "as_pattern",
    "component_count",
    "evaluate",
    "export_voxels_csv",
    "generate",
    "gh_thin",
    "measure_mt",
    "read_ndbin",
    "read_pbm",
    "ruggedize",
    "size_ratio",
    "thin",
    "write_ndbin",
    "write_pbm",
    "zs_thin",
]

__version__ = "0.1.0"
