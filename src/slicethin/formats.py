"""Bit-exact pattern file formats: plain PBM (2D) and NDBIN (k = 2..8).

PBM follows the netpbm convention: magic ``P1``, ``width height`` header,
``1`` = black = foreground; pattern axis 0 is the row, axis 1 the column.
NDBIN is a plain-text container: ``NDBIN\\n<k>\\n<N_1> ... <N_k>\\n``
followed by the cells as whitespace-separated bits in row-major order.
Both formats share one token grammar, stated in the README ("File formats").
A file names its own format by its first token: ``read_pattern`` takes either,
whatever the path, and ``write_pattern`` writes the one the extension names.

One codec decodes a payload into the pattern's shape and a ``bytearray`` of
its cells, one byte of 0 or 1 each, in C order, without an index per bit:
comments, where there are any, are blanked out byte for byte, and one
``bytes.translate`` drops the blanks and maps ``0``/``1`` to 0/1 and any
other byte to 2. A valid payload then has exactly as many bytes as cells and
no 2. In NDBIN each bit must also be a whole token: ``read_pattern``
checks that no two bits touch with numpy, which it builds its array with
anyway; the CLI's reader, ``read_padded``, checks with bytes alone, first
that every byte at an odd (or every byte at an even) offset is a blank,
which holds for every file the writer emits, and only where that fails on a
mask of the filled bytes. Both checks are exact. Only a file that fails one
is scanned again, with numpy, to locate its first fault, so a
``ParseError`` names the byte offset that a token-by-token reader would.

``read_pattern`` views the cells as a bool array; ``read_padded`` pads
them with bytes operations instead, and ``write_pattern`` writes either
form, so that the CLI imports no numpy.

``write_pattern`` overwrites a file in place and then cuts it to the written
length, where it is a regular file; it never opens with ``O_TRUNC``. On ext4,
truncating a file that holds data to zero and writing it again makes the
kernel flush the new data at close (``auto_da_alloc``), which made a 205 KB
rewrite about 14 times slower. A write that fails midway leaves the file
partly rewritten, as a truncating write left it partly written; neither
calls ``fsync``.
"""

from __future__ import annotations

import math
import os
import re
import stat
from pathlib import Path

from .pattern import _MAX_CELLS, _MAX_DIMS, Padded, _pad, _unpad, as_pattern


class FormatError(ValueError):
    """A path names no format to write, or the format cannot hold the pattern."""


class ParseError(ValueError):
    """Malformed pattern file; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_WS = b" \t\n\r\v\f"  # ASCII whitespace, as bytes.isspace() defines it
# Skip whitespace and comments, then capture one token, empty at the end of the
# data. So a match never fails and never backtracks a token into a comment.
_TOKEN = re.compile(rb"(?:[%s]+|#[^\n]*)*([^%s#]*)" % (_WS, _WS))


def _next_token(data, pos, what):
    """The next token after ``pos``, its offset and the offset just past it."""
    m = _TOKEN.match(data, pos)
    if not m.group(1):
        raise ParseError(f"truncated file: missing {what}", len(data))
    return m.group(1), m.start(1), m.end(1)


def _next_int(data, pos, what, minimum=1, maximum=None):
    tok, off, end = _next_token(data, pos, what)
    # ASCII digits only: int() would also take '1_0' and '+5'.
    if not tok.isdigit():
        raise ParseError(f"bad {what} {tok!r}", off)
    try:
        value = int(tok)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"bad {what} {tok!r}", off) from None
    if value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {value}", off)
    if maximum is not None and value > maximum:
        raise ParseError(f"{what} must be <= {maximum}, got {value}", off)
    return value, end


# Maps the blanks to 0 and every other byte to 1.
_FILLED = bytes(0 if b in _WS else 1 for b in range(256))


def _spaced(text):
    """Whether no two bits of a payload that holds only blanks and bits
    touch, by bytes alone: first whether every byte at an even, or every
    byte at an odd, offset is a blank, as in every file the writer emits;
    where neither is, whether no two filled bytes touch."""
    return (text[::2].isspace() or text[1::2].isspace()
            or b"\1\1" not in text.translate(_FILLED))


def _spaced_numpy(text):
    """Whether no two bits of a payload that holds only blanks and bits
    touch, exactly; faster than ``_spaced`` where numpy is in use anyway."""
    import numpy as np

    filled = np.frombuffer(text, np.uint8) > ord(" ")  # a bit, not a blank
    return not (filled[:-1] & filled[1:]).any()


def _decode(data: bytes, magics=(b"P1", b"NDBIN"), spaced=_spaced_numpy):
    """The shape and the cells (a bytearray of 0/1, C order) of a file's
    bytes; ``spaced`` checks NDBIN's one bit per token."""
    magic, off, pos = _next_token(data, 0, "magic")
    if magic not in magics:
        expected = " or ".join(map(repr, magics))
        raise ParseError(f"unsupported magic {magic!r} (expected {expected})", off)
    names = ("width", "height")
    if magic == b"NDBIN":
        k, pos = _next_int(data, pos, "dimension count", minimum=2, maximum=_MAX_DIMS)
        names = (f"size of dimension {i}" for i in range(k))
    sizes = []
    for what in names:
        size, pos = _next_int(data, pos, what)
        sizes.append(size)
    total = math.prod(sizes)  # a Python int: np.prod can wrap to 0
    if total > _MAX_CELLS:
        raise ParseError(f"dimension overflow: {'x'.join(map(str, sizes))}", 0)
    shape = tuple(sizes[::-1] if magic == b"P1" else sizes)
    return shape, _payload(data, pos, total, magic == b"P1", spaced)


# Maps b"0" and b"1" to 0 and 1, and every other byte to 2.
_BITS = bytes(b - ord("0") if b in b"01" else 2 for b in range(256))


def _payload(data, pos, total, packed, spaced):
    """Decode the ``total`` bits after ``pos``; PBM bits may be packed (``1011``)."""
    text = data[pos:]
    if b"#" in text:
        # Blank comments out byte for byte, so an index into text stays an offset.
        text = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), text)
    # Dropping the blanks leaves the bits in order, mapped to 0/1; any other
    # byte becomes a 2.
    bits = bytearray(text.translate(_BITS, _WS))
    if len(bits) == total and 2 not in bits and (packed or spaced(text)):
        return bits
    return _locate_fault(data, text, pos, total, packed)


def _locate_fault(data, text, pos, total, packed):
    """Raise the ``ParseError`` of the first fault of a payload that failed a
    check. Every check is exact, so only an invalid payload ends here."""
    import numpy as np

    # Add a blank at the end, so that every byte is followed by another.
    text += b" "
    buf = np.frombuffer(text, np.uint8)
    filled = (buf - np.uint8(9) > 4) & (buf != ord(" "))  # not in _WS: 9 to 13, 32
    # Each filled byte must be a bit; in NDBIN also a whole token, so the byte
    # after it must be blank. The first byte that fails starts the first token
    # that fails. Checking up to the first excess bit lets an invalid one win.
    at = np.flatnonzero(filled)
    count, at = len(at), at[: total + 1]
    bits = buf[at] - np.uint8(ord("0"))  # wraps past 1 for any other byte
    invalid = np.flatnonzero((bits > 1) | (filled[at + 1] & (not packed)))
    if invalid.size:
        i = at[invalid[0]]
        raise ParseError(f"invalid bit in {text[i:].split(None, 1)[0]!r}", pos + int(i))
    if count > total:
        raise ParseError(f"more than the {total} bits declared", pos + int(at[total]))
    raise ParseError(f"truncated data: got {count} of {total} bits", len(data))


def _array(shape, bits):
    """Decoded cells as a writable bool array over the same bytes."""
    import numpy as np

    return np.frombuffer(bits, bool).reshape(shape)


# Maps the cells 0 and 1 to b"0" and b"1".
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _body(pattern, shape) -> bytes:
    """The cells as '0'/'1' separated by spaces, one last-axis line per row:
    from a bool array with numpy, from a ``Padded`` with bytes operations."""
    if not math.prod(shape):  # the readers take sizes of at least 1
        raise FormatError(f"a pattern file cannot hold a zero-length axis: shape {shape}")
    width = shape[-1]
    if isinstance(pattern, Padded):
        cells = _unpad(pattern)
        out = bytearray(b" ") * (2 * len(cells))
        out[::2] = cells.translate(_DIGITS)
        out[2 * width - 1 :: 2 * width] = b"\n" * (len(cells) // width)
        return bytes(out)
    import numpy as np

    rows = pattern.reshape(-1, width)
    out = np.full((rows.shape[0], 2 * width), ord(" "), np.uint8)
    out[:, ::2] = rows.view(np.uint8) | np.uint8(ord("0"))
    out[:, -1] = ord("\n")
    return out.tobytes()


def _checked(pattern):
    """A pattern to write, and its shape: a ``Padded`` as it is, anything
    else through ``as_pattern``."""
    if isinstance(pattern, Padded):
        return pattern, pattern.pattern_shape
    arr = as_pattern(pattern)
    return arr, arr.shape


def read_pbm(data: bytes) -> np.ndarray:
    """Parse a plain (ASCII) PBM image into a 2D bool pattern."""
    return _array(*_decode(data, (b"P1",)))


def read_ndbin(data: bytes) -> np.ndarray:
    """Parse an NDBIN file into a k-dimensional bool pattern."""
    return _array(*_decode(data, (b"NDBIN",)))


def write_pbm(pattern) -> bytes:
    """Serialize a 2D pattern as plain PBM, one image row per line."""
    pattern, shape = _checked(pattern)
    if len(shape) != 2:
        raise FormatError("PBM holds 2D patterns only")
    h, w = shape
    return f"P1\n{w} {h}\n".encode() + _body(pattern, shape)


def write_ndbin(pattern) -> bytes:
    """Serialize a pattern as NDBIN, one last-axis stride per line."""
    pattern, shape = _checked(pattern)
    return f"NDBIN\n{len(shape)}\n{' '.join(map(str, shape))}\n".encode() + _body(pattern, shape)


def export_voxels_csv(pattern) -> bytes:
    """One CSV line of coordinates per foreground cell, lexicographic order."""
    import numpy as np

    arr = as_pattern(pattern)
    coords = np.argwhere(arr)
    header = ",".join(f"x{i}" for i in range(arr.ndim)) + "\n"
    # One % over every coordinate: no Python line per cell.
    line = ",".join(["%d"] * arr.ndim) + "\n"
    return (header + line * len(coords) % tuple(coords.ravel().tolist())).encode("ascii")


def read_pattern(path) -> np.ndarray:
    """Load a PBM or NDBIN file, whichever its first token names."""
    return _array(*_decode(Path(path).read_bytes()))


def read_padded(path) -> Padded:
    """``read_pattern`` for the CLI: the pattern as a ``Padded``, read with no numpy."""
    shape, bits = _decode(Path(path).read_bytes(), spaced=_spaced)
    return _pad(bits, shape)


_WRITERS = {".pbm": write_pbm, ".ndbin": write_ndbin}
# As open(path, "wb") opens, without O_TRUNC: see the module docstring.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_pattern(path, pattern) -> None:
    """Save a pattern in the format that the path's extension names."""
    path = Path(path)
    write = _WRITERS.get(path.suffix.lower())
    if write is None:
        raise FormatError(f"cannot infer format from {path.name!r}; use .pbm or .ndbin")
    data = write(pattern)
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        # ftruncate fails on /dev/null, a FIFO or a tty.
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
