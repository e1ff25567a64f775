"""In-memory spans around calls into the slicethin package, from outside it.

``install`` rebinds module attributes that the package looks up at call
time (``slicethin.thinning.thin_subcycle``, ``slicethin.cli.read_pattern``,
...) to wrappers that record one span per call. The package itself is not
changed. Spans stay in memory and are written out when a run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np


class Tracer:
    """A flat list of spans; each span is [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def start(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, {}])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def end(self, index, **attrs):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4].update(attrs)
        self._open.pop()

    def adopt(self, spans, parent):
        """Append spans recorded by another process under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, own_parent, attrs in spans:
            new_parent = parent if own_parent is None else own_parent + offset
            self.spans.append([name, start, end, new_parent, attrs])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _note_thin(args, kwargs, result):
    skeleton, iterations = result
    before = int(np.count_nonzero(args[0]))
    return {"iterations": iterations, "deleted": before - int(np.count_nonzero(skeleton))}


def _note_subcycle(args, kwargs, result):
    arr = args[0]
    return {"k": arr.ndim, "cells": int(arr.size), "useful": int(bool(result))}


def _note_iterations(args, kwargs, result):
    return {"iterations": result[1]}


def _note_file(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, note). The package's own modules bind these
# names at import time, so the CLI's `from .formats import read_pattern`
# needs its own entry, and ``install`` imports every module before it wraps
# any, so that the CLI's copy is the original function, wrapped once.
WRAPPED = (
    ("slicethin.thinning", "thin", "thinning.thin", _note_thin),
    ("slicethin.thinning", "thin_subcycle", "thinning.subcycle", _note_subcycle),
    ("slicethin.baselines", "zs_thin", "baselines.zs", _note_iterations),
    ("slicethin.baselines", "gh_thin", "baselines.gh", _note_iterations),
    ("slicethin.metrics", "evaluate", "metrics.evaluate", None),
    ("slicethin.metrics", "component_count", "pattern.component_count", None),
    ("slicethin.formats", "read_pattern", "formats.read", _note_file),
    ("slicethin.formats", "write_pattern", "formats.write", _note_file),
    ("slicethin.cli", "read_pattern", "formats.read", _note_file),
    ("slicethin.cli", "write_pattern", "formats.write", _note_file),
    ("slicethin.shapes", "generate", "shapes.generate", None),
    ("slicethin.shapes", "ruggedize", "shapes.ruggedize", None),
    ("slicethin.cli", "main", "cli.main", None),
)


def _wrap(tracer, original, name, note):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.start(name)
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            tracer.end(index, error=type(exc).__name__)
            raise
        tracer.end(index)
        if note is not None:
            tracer.spans[index][4].update(note(args, kwargs, result))
        return result

    return wrapper


def install(tracer):
    modules = [importlib.import_module(entry[0]) for entry in WRAPPED]
    for module, (_, attr, name, note) in zip(modules, WRAPPED):
        setattr(module, attr, _wrap(tracer, getattr(module, attr), name, note))


def summarize(spans):
    """Aggregate spans by name: count, total and self seconds, summed attrs.

    Only spans inside an ``op`` span count, so set-up and warm-up work is
    left out; ``shapes.*`` spans are the exception and count everywhere,
    because the corpus is generated during set-up. A span with a ``k``
    attribute is also aggregated under ``<name>.k<k>``.
    """
    child_time = [0.0] * len(spans)
    in_op = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            in_op[i] = in_op[parent]
        if name == "op":
            in_op[i] = True
    agg = {}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        if not (in_op[i] or name.startswith("shapes.")):
            continue
        keys = [name]
        if "k" in attrs:
            keys.append(f"{name}.k{attrs['k']}")
        for key in keys:
            entry = agg.setdefault(key, {"count": 0, "total": 0.0, "self": 0.0, "errors": {}})
            entry["count"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time[i]
            for attr, value in attrs.items():
                if attr == "error":
                    entry["errors"][value] = entry["errors"].get(value, 0) + 1
                elif attr != "k":
                    entry[attr] = entry.get(attr, 0) + value
    return agg


def layer_metrics(agg, imports):
    """Per-layer metrics, as {name: (value, unit)}, from ``summarize`` output."""

    def get(name, field="total"):
        return agg.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    op_s = get("op")
    read_s = get("formats.read")
    write_s = get("formats.write")
    subcycle_s = get("thinning.subcycle")
    zs_s = get("baselines.zs")
    gh_s = get("baselines.gh")
    process_s = get("cli.process")
    main_s = get("cli.main")
    return {
        "import.process_s": (imports["process_s"], "s"),
        "import.slicethin_s": (imports["slicethin_s"], "s"),
        "import.numpy_s": (imports["numpy_s"], "s"),
        "import.scipy_s": (imports["scipy_s"], "s"),
        "import.modules": (imports["modules"], "count"),
        "cli.calls": (get("cli.process", "count"), "count"),
        "cli.process_s": (process_s, "s"),
        "cli.main_s": (main_s, "s"),
        "cli.startup_s": (process_s - main_s if process_s else 0.0, "s"),
        "cli.nonzero_exits": (get("cli.process", "nonzero"), "count"),
        "formats.read_s": (read_s, "s"),
        "formats.write_s": (write_s, "s"),
        "formats.read_bytes": (get("formats.read", "bytes"), "B"),
        "formats.write_bytes": (get("formats.write", "bytes"), "B"),
        "formats.read_MBps": (ratio(get("formats.read", "bytes") / 1e6, read_s), "MB/s"),
        "shapes.generate_s": (get("shapes.generate"), "s"),
        "shapes.ruggedize_s": (get("shapes.ruggedize"), "s"),
        "thinning.thin_s": (get("thinning.thin"), "s"),
        "thinning.thin_self_s": (get("thinning.thin", "self"), "s"),
        "thinning.subcycle_s": (subcycle_s, "s"),
        "thinning.subcycle_s.k2": (get("thinning.subcycle.k2"), "s"),
        "thinning.subcycle_s.k3": (get("thinning.subcycle.k3"), "s"),
        "thinning.subcycle_s.k4": (get("thinning.subcycle.k4"), "s"),
        "thinning.subcycle_calls": (get("thinning.subcycle", "count"), "count"),
        "thinning.iterations": (get("thinning.thin", "iterations"), "count"),
        "thinning.cells_scanned": (get("thinning.subcycle", "cells"), "count"),
        "thinning.cells_deleted": (get("thinning.thin", "deleted"), "count"),
        "thinning.ns_per_cell": (ratio(subcycle_s * 1e9, get("thinning.subcycle", "cells")), "ns"),
        "thinning.useful_subcycle_frac": (
            ratio(get("thinning.subcycle", "useful"), get("thinning.subcycle", "count")),
            "ratio",
        ),
        "baselines.zs_s": (zs_s, "s"),
        "baselines.gh_s": (gh_s, "s"),
        "baselines.calls": (get("baselines.zs", "count") + get("baselines.gh", "count"), "count"),
        "baselines.iterations": (
            get("baselines.zs", "iterations") + get("baselines.gh", "iterations"),
            "count",
        ),
        "metrics.evaluate_s": (get("metrics.evaluate"), "s"),
        "metrics.undefined": (
            agg.get("metrics.evaluate", {}).get("errors", {}).get("UndefinedMetricError", 0),
            "count",
        ),
        "pattern.component_count_s": (get("pattern.component_count"), "s"),
        "trace.op_s": (op_s, "s"),
        "trace.cells_per_s": (ratio(get("op", "cells"), op_s), "cells/s"),
        "share.thinning_subcycle": (ratio(subcycle_s, op_s), "ratio"),
        "share.formats_baselines": (ratio(read_s + write_s + zs_s + gh_s, op_s), "ratio"),
        "share.cli_startup": (ratio(process_s - main_s, process_s), "ratio"),
    }
