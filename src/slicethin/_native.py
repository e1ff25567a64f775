"""The C kernels of ``_kernel.c``: built with the system ``cc`` on first use.

``load`` builds or finds the library once per process, types its four
entry points from ``_ENTRY_POINTS`` and returns it. It is the only code
that knows ctypes: ``thinning``, ``baselines``, ``pattern`` and ``metrics``
call ``load()`` where they need a kernel, not at import, because the load
may compile, and call the typed function directly. ``pointer``, ``shape``,
``ints`` and ``scratch`` make the arguments: a kernel takes any writable
buffer, a ``bytearray`` here, by a reference to its first byte, a shape as
a ``c_ssize_t`` array, ``slicethin_thin`` its schedule as packed C ints and
``slicethin_counts`` an out array from ``scratch``. The other kernels
malloc and free their own lists and stacks, and return -1 where those find
no memory; their callers raise ``MemoryError``. No argument needs a ctypes
type of its own size: ctypes holds those weakly, and building one again
costs about 20 us. Importing this module loads ctypes, struct and zlib, and
a load from the cache nothing more: tempfile is imported only where the
user's cache directory cannot be used, and subprocess only to compile.

The library is cached in ``$XDG_CACHE_HOME/slicethin`` (default
``~/.cache/slicethin``), or, where that cannot be written, in
``<tempdir>/slicethin-<uid>``. Its name holds a CRC-32 of the C source, the
compile command and the machine type, and the source's length, so a changed
source gets a new build. zlib gives the CRC: it is a small built-in module,
while hashlib would cost every CLI call a few milliseconds. The CRC tells
builds apart; it is no defence against a planted library, which is what the
checks on the temp directory are for.
Each build goes to a temporary file that is renamed into place, so
processes that build at the same time never load a half-written library.
Where there is no compiler, or the build or the load fails, ``load`` gives
None: the Python ``nd`` kernel and the numpy ZS/GH driver, component counter
and metric counts run instead.
"""

from __future__ import annotations

import ctypes
import os
import stat
import struct
import zlib
from contextlib import suppress
from functools import lru_cache
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILE = ("cc", "-O2", "-shared", "-fPIC")

_SHAPE = ctypes.POINTER(ctypes.c_ssize_t)  # a c_ssize_t array, as ``shape`` gives
_SHAPES = [ctypes.c_ssize_t * k for k in range(9)]  # one array type per k the kernels take
# The argument types of each entry point; every one returns a ssize_t: a
# count, -1 from the three that malloc their own lists or stack where those
# find no memory, or 0 from slicethin_counts, which fills its out array instead.
_ENTRY_POINTS = {
    # buf, ndim, shape, subs, ends, nphases
    "slicethin_thin": (ctypes.c_void_p, ctypes.c_int, _SHAPE,
                       ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int),
    # buf, rows, cols, tables
    "slicethin_sweep": (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p),
    # buf, ndim, shape
    "slicethin_components": (ctypes.c_void_p, ctypes.c_int, _SHAPE),
    # input, skeleton, ndim, shape, counts
    "slicethin_counts": (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int, _SHAPE, ctypes.c_void_p),
}


def pointer(buf):
    """A writable buffer as a kernel's pointer argument: a reference to its
    first byte, which holds the buffer, and keeps it from being resized,
    while it lives."""
    return ctypes.byref(ctypes.c_char.from_buffer(buf))


def shape(sizes):
    """A shape as a kernel's ``shape``: a ``c_ssize_t`` array of the sizes."""
    return _SHAPES[len(sizes)](*sizes)


def ints(values):
    """``values`` as a kernel's ``const int *``: packed C ints, by ``pointer``."""
    return pointer(bytearray(struct.pack(f"{len(values)}i", *values)))


def scratch(n):
    """Room for ``n`` zeroed ``ssize_t`` entries: ``slicethin_counts``'s out
    array, for ``pointer``."""
    return bytearray(n * ctypes.sizeof(ctypes.c_ssize_t))


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
    key = source + repr((COMPILE, _machine())).encode()
    return f"kernel-{zlib.crc32(key):08x}-{len(source)}.so"


def _machine():
    """``platform.machine()``, read from ``os.uname`` where there is one:
    importing platform would cost every CLI call about 3 ms."""
    if hasattr(os, "uname"):
        return os.uname().machine
    import platform

    return platform.machine()


def _library():
    """The built library's path: found in a cache directory, or compiled into one."""
    name = _name(SOURCE.read_bytes())
    for directory in _cache_dirs():
        path = directory / name
        if path.is_file():
            return path
        import tempfile

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
    import tempfile

    private = Path(tempfile.gettempdir()) / f"slicethin-{os.getuid()}"
    with suppress(FileExistsError):
        private.mkdir(mode=0o700)
    st = private.lstat()
    if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022:
        yield private
