"""Directional thinning of 3D solids: medial axes and medial planes.

A rugged cylinder is thinned with several axis subsets; a solid box is
reduced to its medial plane and then to a medial axis by a two-phase
schedule (z first, then x/y alternately).

Run:  PYTHONPATH=src python3 demos/medial_plane_3d.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from slicethin import (
    RuggedSpec,
    ShapeSpec,
    export_voxels_csv,
    generate,
    ruggedize,
    thin,
    write_pattern,
)

outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
outdir.mkdir(parents=True, exist_ok=True)

cylinder = generate(ShapeSpec("cylinder", (15, 15, 11), {"radius": 5, "height": 7}))
rugged = ruggedize(cylinder, RuggedSpec(probability=0.3, seed=11))
print(f"rugged cylinder: {int(rugged.sum())} of {int(cylinder.sum())} voxels kept")

schedules = {
    "all-axes": None,                 # default: every axis, both directions
    "xy-only": "1fb,0fb",             # keeps the cylinder's z extent
    "z-only": "2fb",                  # collapses to a single slab
}
for label, schedule in schedules.items():
    skeleton, iterations = thin(rugged, schedule)
    print(f"{label:10s} -> {int(skeleton.sum()):4d} voxels in {iterations} iterations")
    (outdir / f"cylinder_{label}.csv").write_bytes(export_voxels_csv(skeleton))

# Medial plane, then medial axis, of a solid box.
box = np.ones((9, 9, 5), bool)
plane, _ = thin(box, "2fb")
assert (plane.sum(axis=2) <= 1).all()
axis, _ = thin(box, "2fb;1fb,0fb")
print(f"box medial plane: {int(plane.sum())} voxels; medial axis: {int(axis.sum())}")
write_pattern(outdir / "box_medial_plane.ndbin", plane)
(outdir / "box_medial_plane.csv").write_bytes(export_voxels_csv(plane))
(outdir / "box_medial_axis.csv").write_bytes(export_voxels_csv(axis))
print(f"voxel CSVs written to {outdir}/")
