"""Sequential slice-based thinning of k-dimensional binary patterns."""

from .baselines import gh_thin, zs_thin
from .formats import export_voxels_csv, read_pattern, write_pattern
from .metrics import MetricsReport, evaluate
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
    "read_pattern",
    "ruggedize",
    "thin",
    "write_pattern",
    "zs_thin",
]

__version__ = "0.1.0"
