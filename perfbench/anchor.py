"""Re-measure the rows of ROADMAP.md's re-anchor timing table.

Usage: python3 perfbench/anchor.py

Each row is timed three times and the minimum is compared with the
value the table recorded. Rows more than 20% away are flagged. Library rows
run in this process; the import and CLI rows each start a fresh
interpreter. Temporary files go to perfbench/work/ and are removed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import slicethin.baselines as baselines  # noqa: E402
import slicethin.formats as formats  # noqa: E402
import slicethin.shapes as shapes  # noqa: E402
import slicethin.thinning as thinning  # noqa: E402
from slicethin.shapes import ShapeSpec  # noqa: E402

# (row, seconds recorded in ROADMAP.md), Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1, 2 cores, min of a few runs.
TABLE = (
    ("import slicethin (fresh interpreter)", 0.79),
    ("nd thin, disc r=126 on 256^2", 1.81),
    ("ZS, disc r=126 on 256^2", 0.077),
    ("GH, disc r=126 on 256^2", 0.095),
    ("nd thin, disc on 128^2", 0.32),
    ("nd thin, disc on 64^2", 0.059),
    ("nd thin, sphere r=22 on 48^3", 1.79),
    ("read_ndbin, sphere on 48^3", 0.136),
    ("write_ndbin, sphere on 48^3", 0.039),
    ("CLI thin --algo nd, sphere on 48^3", 2.9),
    ("CLI thin --algo nd, disc on 64^2", 0.88),
)
REPEAT = 3


def best(fn):
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # let the first run cache .pyc files
    work = HERE / "work" / f"anchor-{os.getpid()}"
    work.mkdir(parents=True)
    disc = {n: shapes.generate(ShapeSpec("disc", (n, n), {"radius": (n - 4) / 2})) for n in (64, 128, 256)}
    sphere = shapes.generate(ShapeSpec("sphere", (48, 48, 48), {"radius": 22}))
    sphere_bytes = formats.write_ndbin(sphere)
    formats.write_pattern(work / "sphere.ndbin", sphere)
    formats.write_pattern(work / "disc.pbm", disc[64])

    def cli(path):
        args = ["thin", "--algo", "nd", "--input", str(path), "--output", str(work / f"out{path.suffix}")]
        code = "from slicethin.cli import entry; entry()"
        return lambda: subprocess.run([sys.executable, "-c", code, *args], env=env, check=True)

    rows = (
        lambda: subprocess.run([sys.executable, "-c", "import slicethin"], env=env, check=True),
        lambda: thinning.thin(disc[256]),
        lambda: baselines.zs_thin(disc[256]),
        lambda: baselines.gh_thin(disc[256]),
        lambda: thinning.thin(disc[128]),
        lambda: thinning.thin(disc[64]),
        lambda: thinning.thin(sphere),
        lambda: formats.read_ndbin(sphere_bytes),
        lambda: formats.write_ndbin(sphere),
        cli(work / "sphere.ndbin"),
        cli(work / "disc.pbm"),
    )
    try:
        print(f"{'row':40s} {'table s':>8s} {'now s':>8s} {'change':>7s}")
        for (name, recorded), fn in zip(TABLE, rows):
            now = best(fn)
            change = now / recorded - 1
            flag = "  <-- differs by more than 20%" if abs(change) > 0.2 else ""
            print(f"{name:40s} {recorded:8.3f} {now:8.3f} {change:+7.0%}{flag}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
