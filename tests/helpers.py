"""Shared test helpers: one ``nd`` sub-cycle of the Python kernel, the C
kernels swapped for their twins, ``thin`` on both backends, Python code run
in a fresh interpreter, unit-width lines and pinned shape masks."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicethin
from slicethin import _native, thinning
from slicethin.pattern import _padded


def run_subcycle(arr, axis, dirs):
    """One sub-cycle of the Python kernel on ``arr``, in place; returns the
    number of cells deleted.

    ``arr`` may be any bool view: it is padded into the buffer the kernel
    works on, and the interior is written back.
    """
    padded = _padded(arr)
    deleted = thinning.thin_subcycle(padded, axis, dirs)
    arr[...] = padded.array()[(slice(1, -1),) * arr.ndim]
    return deleted


@contextlib.contextmanager
def python_kernels():
    """Run the Python ``nd`` kernel, the numpy ZS/GH driver and the numpy
    component counter in place of the C kernels.

    Skipped where no C kernel loads (no compiler, or a failed build): the
    plain tests have run those paths there.
    """
    if _native.load() is None:
        pytest.skip("no C kernel loads here")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "load", lambda: None)
        yield


def on_both_backends(pattern, schedule=None):
    """``thin`` of ``pattern`` by ``slicethin_thin``, then by the Python
    kernel; skipped where no C kernel loads."""
    native = thinning.thin(pattern, schedule)
    with python_kernels():
        return native, thinning.thin(pattern, schedule)


def child_env(**env):
    """This environment plus ``env``, with this slicethin importable."""
    src = str(Path(slicethin.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, **env, "PYTHONPATH": path}


def run_python(code, **env):
    """The words ``code`` prints in a fresh interpreter, which must exit 0."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(**env), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def hline(length, pad=2):
    """A horizontal line of ``length`` cells, ``pad`` cells clear of every face."""
    arr = np.zeros((2 * pad + 1, length + 2 * pad), bool)
    arr[pad, pad : pad + length] = True
    return arr


def diag(length, pad=2):
    """A diagonal line of ``length`` cells, ``pad`` cells clear of every face."""
    n = length + 2 * pad
    arr = np.zeros((n, n), bool)
    for i in range(length):
        arr[pad + i, pad + i] = True
    return arr


# Two parameter sets per shape kind, with the SHA-256 of the mask's bytes
# (one byte per cell, C order) as the per-kind branches of `generate` drew it.
SHAPE_DIGESTS = [
    ("square", (9, 9), {"side": 5},
     "0d3ee25ebbcfc4c679fe984b1d1e08832946bbc3225b0502cecb7e9c68e5d70e"),
    ("square", (12, 12), {"side": 6.5},
     "8a9a38d66f0054112738a4b6cea5237b50e8cf61c45bc17208e932e073d92bc0"),
    ("rectangle", (9, 11), {"height": 3, "width": 7},
     "03a1a13c9f90e0737033f4579ae935b44269a184de2a80d2e7267bb5380f5e3f"),
    ("rectangle", (14, 10), {"height": 8.4, "width": 5},
     "cdca733ff250f3f6b0a778ab0d6faef46ea20e83b6c34c7e8f2a24377e64e7e3"),
    ("disc", (11, 11), {"radius": 4},
     "e0748107f522924231a70124c7e2551e33cd90678eb05bb3175e88999afa7ba3"),
    ("disc", (14, 13), {"radius": 5.3},
     "95630b6f6eddea1228d61796d90fb7dac1298e1d8c7caff256d051bf54f053ec"),
    ("triangle", (9, 11), {"base": 7, "height": 7},
     "3fa059cb0a1b463363f643b91c6822b7836d261bd2e83c1d4b00e2009b2054b7"),
    ("triangle", (14, 16), {"base": 11.5, "height": 9.2},
     "70edd0489aebb8f7794104b76a13a40a13a274c4a2c24f69c2f47d25d22d1e0d"),
    ("sphere", (9, 9, 9), {"radius": 3},
     "9f1e644106570f20cf59348ed750a97d9d3229c6d6e27b1ad0baaedfd5e5c1f5"),
    ("sphere", (12, 11, 10), {"radius": 3.7},
     "0cf15f599154909c8eea96cb0321913a98580ba3b5bdace4899eb91a79d9c434"),
    ("cylinder", (9, 9, 7), {"radius": 3, "height": 5},
     "6efd17fb00ea18301fec0acb0eddea3164929fa0ad43ccb9e3463c6721a7865e"),
    ("cylinder", (12, 10, 11), {"radius": 3.6, "height": 7.5},
     "4042075d46b14487469c00238f64df3611f29a874978669668303979b9725dfe"),
    ("hyperboloid-one-sheet", (11, 11, 7), {"radius": 2, "slope": 2, "height": 5},
     "a4d2a9cdcbba939207a64e4c164e2b61f503c4be28e09c7c4d017cb8bc81818b"),
    ("hyperboloid-one-sheet", (14, 13, 12), {"radius": 2.5, "slope": 3.3, "height": 9},
     "f7d5938c15d983015e9c51ef2c125f0ab683c639388343ef60828738a19ac6ab"),
    ("hyperboloid-two-sheet", (11, 11, 9), {"radius": 1.5, "slope": 1.5, "height": 7},
     "557230b442222e29b29b237411837ea73dac7e8f1d43afa0b44bb4a854847cf3"),
    ("hyperboloid-two-sheet", (14, 14, 13), {"radius": 2.2, "slope": 2.5, "height": 10.5},
     "1bbeb2c609bba4b79acee9e83442faf3c7afd87a8bea3c97491b8d1a75783469"),
    ("elliptic-paraboloid", (13, 13, 7), {"radius": 2, "height": 5},
     "b5bbecedb93287a08374bce7fe88762c7cbb88ef2da6f3487ae18ac9c9240a68"),
    ("elliptic-paraboloid", (12, 14, 11), {"radius": 1.7, "height": 8.6},
     "f9359b49f3d0725153dc3ec9fef02020393a696c308f59a9a9791e8c9c797681"),
]
