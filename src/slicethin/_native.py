"""The C sub-cycle of ``_kernel.c``: built with the system ``cc`` on first use.

The library is cached in ``$XDG_CACHE_HOME/slicethin`` (default
``~/.cache/slicethin``), or, where that cannot be written, in
``<tempdir>/slicethin-<uid>``. Its name is a hash of the C source, the
compile command and the machine type, so a changed source gets a new build.
Each build goes to a temporary file that is renamed into place, so
processes that build at the same time never load a half-written library.
Where there is no compiler, or the build or the load fails, ``load`` gives
None and the Python kernel runs instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import stat
import subprocess
import tempfile
from contextlib import suppress
from functools import lru_cache
from pathlib import Path

from .pattern import _MAX_DIMS
from .thinning import _offsets

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILE = ("cc", "-O2", "-shared", "-fPIC")

_Offsets = ctypes.POINTER(ctypes.c_ssize_t)


def load():
    """The C sub-cycle as ``f(padded, axis, directions) -> cells deleted``,
    or None where the Python kernel is to run."""
    try:
        fn = ctypes.CDLL(str(_library())).slicethin_subcycle
    except (OSError, subprocess.SubprocessError):
        return None
    fn.restype = ctypes.c_ssize_t
    fn.argtypes = (ctypes.c_void_p, ctypes.c_int, _Offsets, ctypes.c_int, ctypes.c_int,
                   ctypes.c_int, _Offsets, _Offsets, _Offsets)

    def subcycle(padded, axis, directions):
        block, ahead_f, ahead_b = _flat_offsets(padded.strides, axis)
        shape = (ctypes.c_ssize_t * padded.ndim)(*padded.shape)
        return fn(padded.ctypes.data, padded.ndim, shape, axis, "f" in directions,
                  "b" in directions, block, ahead_f, ahead_b)

    return subcycle


@lru_cache(maxsize=_MAX_DIMS)
def _flat_offsets(strides, axis):
    """``_offsets`` as C arrays; each plane-ahead list is flattened to
    {n, then per cell F: F's offset, m, m shared offsets}. Built from the
    uncached ``_offsets``, so only this cache holds the tables."""

    def c_array(values):
        return (ctypes.c_ssize_t * len(values))(*values)

    block, ahead_f, ahead_b = _offsets.__wrapped__(strides, axis)
    flat = [[len(ahead), *(x for f, shared in ahead for x in (f, len(shared), *shared))]
            for ahead in (ahead_f, ahead_b)]
    return c_array(block), c_array(flat[0]), c_array(flat[1])


def _library():
    """The built library's path: found in a cache directory, or compiled into one."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(repr((COMPILE, platform.machine())).encode())
    name = f"kernel-{digest.hexdigest()[:16]}.so"
    for directory in _cache_dirs():
        path = directory / name
        if path.is_file():
            return path
        try:
            fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=directory)
        except OSError:
            continue  # not writable: try the next directory
        os.close(fd)
        try:
            subprocess.run([*COMPILE, "-o", tmp, str(SOURCE)], check=True,
                           capture_output=True, text=True, timeout=120)
            os.replace(tmp, path)
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
