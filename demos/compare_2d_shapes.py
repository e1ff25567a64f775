"""Thin a few simple 2D shapes with all three algorithms and compare.

Run:  PYTHONPATH=src python3 demos/compare_2d_shapes.py
"""

import numpy as np

from slicethin import ShapeSpec, evaluate, generate, gh_thin, thin, zs_thin
from slicethin.metrics import CSV_HEADER


def ascii_art(pattern):
    return "\n".join("".join("#" if v else "." for v in row) for row in pattern)


shapes = {
    "square": generate(ShapeSpec("square", (19, 19), {"side": 15})),
    "disc": generate(ShapeSpec("disc", (21, 21), {"radius": 8})),
    "triangle": generate(ShapeSpec("triangle", (19, 21), {"base": 17, "height": 15})),
}

algorithms = {"zs": zs_thin, "gh": gh_thin, "nd": thin}

for name, pattern in shapes.items():
    print(f"=== {name} ({int(pattern.sum())} foreground pixels) ===")
    print(ascii_art(pattern))
    print(CSV_HEADER)
    for algo, fn in algorithms.items():
        skeleton, iterations = fn(pattern)
        print(evaluate(pattern, skeleton, iterations).csv_row(algo))
    skeleton, _ = thin(pattern)
    print("\nnd skeleton:")
    print(ascii_art(skeleton))
    print()

# Directional variants: erode the square along one axis only.
square = np.ones((7, 7), bool)
for schedule, label in [("1fb", "east-west"), ("0fb", "north-south"), ("1f", "east only")]:
    skeleton, _ = thin(square, schedule)
    print(f"7x7 square, {label} erosion (schedule {schedule!r}):")
    print(ascii_art(skeleton))
    print()
