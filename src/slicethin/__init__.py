"""Sequential slice-based thinning of k-dimensional binary patterns."""

# The module of each public name. A name is imported on first use (PEP 562),
# so that importing one module, such as ``slicethin.cli``, loads only what
# that module uses: the CLI's thin, compare and metrics load no numpy.
_EXPORTS = {
    "MetricsReport": "metrics",
    "RuggedSpec": "shapes",
    "ShapeSpec": "shapes",
    "as_pattern": "pattern",
    "component_count": "pattern",
    "evaluate": "metrics",
    "export_voxels_csv": "formats",
    "generate": "shapes",
    "gh_thin": "baselines",
    "measure_mt": "metrics",
    "read_pattern": "formats",
    "ruggedize": "shapes",
    "size_ratio": "metrics",
    "thin": "thinning",
    "write_pattern": "formats",
    "zs_thin": "baselines",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value

