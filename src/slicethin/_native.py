"""The C kernels of ``_kernel.c``: built with the system ``cc`` on first use.

``load`` builds or finds the library once per process, types its three
entry points from ``_ENTRY_POINTS`` and returns it. It is the only code
that knows ctypes: ``thinning``, ``baselines`` and ``pattern`` call
``load()`` where they need a kernel, not at import, because the load may
compile, and call the typed function directly. Importing this module loads
nothing that ``import numpy`` has not loaded already, and a load from the
cache nothing more; subprocess is imported only to compile.

The library is cached in ``$XDG_CACHE_HOME/slicethin`` (default
``~/.cache/slicethin``), or, where that cannot be written, in
``<tempdir>/slicethin-<uid>``. Its name holds a CRC-32 of the C source, the
compile command and the machine type, and the source's length, so a changed
source gets a new build. zlib gives the CRC: ``import numpy`` has loaded it,
while hashlib would cost every CLI call a few milliseconds. The CRC tells
builds apart; it is no defence against a planted library, which is what the
checks on the temp directory are for.
Each build goes to a temporary file that is renamed into place, so
processes that build at the same time never load a half-written library.
Where there is no compiler, or the build or the load fails, ``load`` gives
None: the Python ``nd`` kernel, the numpy ZS/GH driver and the numpy
component counter run instead.
"""

from __future__ import annotations

import ctypes
import os
import platform
import stat
import tempfile
import zlib
from contextlib import suppress
from functools import lru_cache
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILE = ("cc", "-O2", "-shared", "-fPIC")

_SHAPE = ctypes.POINTER(ctypes.c_ssize_t)  # an ndarray's ``.ctypes.shape``
# The argument types of each entry point; every one returns a count (ssize_t).
_ENTRY_POINTS = {
    # buf, ndim, shape, axis, do_f, do_b
    "slicethin_subcycle": (ctypes.c_void_p, ctypes.c_int, _SHAPE,
                           ctypes.c_int, ctypes.c_int, ctypes.c_int),
    # buf, rows, cols, tables, list
    "slicethin_sweep": (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t,
                        ctypes.c_void_p, ctypes.c_void_p),
    # buf, ndim, shape, stack
    "slicethin_components": (ctypes.c_void_p, ctypes.c_int, _SHAPE, ctypes.c_void_p),
}


@lru_cache(maxsize=1)
def load():
    """The loaded library as a ``ctypes.CDLL`` with its entry points typed,
    or None where the Python and numpy paths are to run. Built, found and
    loaded once per process."""
    try:
        lib = ctypes.CDLL(str(_library()))
    except OSError:
        return None
    for name, argtypes in _ENTRY_POINTS.items():
        fn = getattr(lib, name)
        fn.restype = ctypes.c_ssize_t
        fn.argtypes = argtypes
    return lib


def _name(source: bytes) -> str:
    """The cached library's file name, from the source, the compile command
    and the machine type: their CRC-32 and the source's length."""
    key = source + repr((COMPILE, platform.machine())).encode()
    return f"kernel-{zlib.crc32(key):08x}-{len(source)}.so"


def _library():
    """The built library's path: found in a cache directory, or compiled into one."""
    name = _name(SOURCE.read_bytes())
    for directory in _cache_dirs():
        path = directory / name
        if path.is_file():
            return path
        try:
            fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=directory)
        except OSError:
            continue  # not writable: try the next directory
        os.close(fd)
        import subprocess

        try:
            subprocess.run([*COMPILE, "-o", tmp, str(SOURCE)], check=True,
                           capture_output=True, text=True, timeout=120)
            os.replace(tmp, path)
        except subprocess.SubprocessError as error:  # cc failed or hung
            raise OSError(f"the C kernel did not build: {error}") from error
        finally:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
        return path
    raise OSError("no writable cache directory for the C kernel")


def _cache_dirs():
    """The user's cache directory, then a private one under the temp directory.

    The second exists only where users have ids, and is used only while it
    is a directory of this user that no one else may write to: another user
    could otherwise plant a library.
    """
    user = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "slicethin"
    with suppress(OSError):
        user.mkdir(parents=True, exist_ok=True)
    if user.is_dir():
        yield user
    if not hasattr(os, "getuid"):
        return
    private = Path(tempfile.gettempdir()) / f"slicethin-{os.getuid()}"
    with suppress(FileExistsError):
        private.mkdir(mode=0o700)
    st = private.lstat()
    if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022:
        yield private
