"""Bit-exact pattern file formats: plain PBM (2D) and NDBIN (k = 2..8).

PBM follows the netpbm convention: magic ``P1``, ``width height`` header,
``1`` = black = foreground; pattern axis 0 is the row, axis 1 the column.
NDBIN is a plain-text container: ``NDBIN\\n<k>\\n<N_1> ... <N_k>\\n``
followed by the cells as whitespace-separated bits in row-major order.
Both formats share one token grammar, stated in the README ("File formats").
A file names its own format by its first token: ``read_pattern`` takes either,
whatever the path, and ``write_pattern`` writes the one the extension names.

A valid payload is decoded without an index per bit: comments, where there
are any, are blanked out byte for byte, ``bytes.translate`` drops the blanks,
and numpy checks what is left: the count, that every byte is a bit and, in
NDBIN, that no two non-blank bytes touch. Only a file that fails a check is
scanned again to locate its first fault, so a ``ParseError`` names the byte
offset that a token-by-token reader would.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .pattern import _MAX_CELLS, _MAX_DIMS, as_pattern


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


def _read(data: bytes, magics=(b"P1", b"NDBIN")) -> np.ndarray:
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
    bits = _payload(data, pos, total, packed=magic == b"P1")
    return bits.reshape(sizes[::-1] if magic == b"P1" else sizes)


def _payload(data, pos, total, packed):
    """Decode the ``total`` bits after ``pos``; PBM bits may be packed (``1011``)."""
    text = data[pos:]
    if b"#" in text:
        # Blank comments out byte for byte, so an index into text stays an offset.
        text = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), text)
    # Dropping the blanks leaves the bits in order. A valid file passes three
    # checks on them: the count, every byte a bit and, in NDBIN, one bit per
    # token. Only a file that fails one is scanned again, to locate the fault.
    bits = np.frombuffer(text.translate(None, _WS), np.uint8) - np.uint8(ord("0"))
    if len(bits) == total and bits.max() <= 1:  # a byte below '0' wraps past 1
        if packed:
            return bits.view(bool)
        # Every byte is now a blank or a bit, and only the bits lie above ' '.
        filled = np.frombuffer(text, np.uint8) > ord(" ")
        if not (filled[:-1] & filled[1:]).any():
            return bits.view(bool)
    # A check failed: locate the first fault. Add a blank at the end, so that
    # every byte is followed by another.
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


def _body(arr) -> bytes:
    """The cells as '0'/'1' separated by spaces, one last-axis line per row."""
    if not arr.size:  # the readers take sizes of at least 1
        raise FormatError(f"a pattern file cannot hold a zero-length axis: shape {arr.shape}")
    rows = arr.reshape(-1, arr.shape[-1])
    out = np.full((rows.shape[0], 2 * rows.shape[1]), ord(" "), np.uint8)
    out[:, ::2] = rows.view(np.uint8) | np.uint8(ord("0"))
    out[:, -1] = ord("\n")
    return out.tobytes()


def read_pbm(data: bytes) -> np.ndarray:
    """Parse a plain (ASCII) PBM image into a 2D bool pattern."""
    return _read(data, (b"P1",))


def read_ndbin(data: bytes) -> np.ndarray:
    """Parse an NDBIN file into a k-dimensional bool pattern."""
    return _read(data, (b"NDBIN",))


def write_pbm(pattern) -> bytes:
    """Serialize a 2D pattern as plain PBM, one image row per line."""
    arr = as_pattern(pattern)
    if arr.ndim != 2:
        raise FormatError("PBM holds 2D patterns only")
    h, w = arr.shape
    return f"P1\n{w} {h}\n".encode() + _body(arr)


def write_ndbin(pattern) -> bytes:
    """Serialize a pattern as NDBIN, one last-axis stride per line."""
    arr = as_pattern(pattern)
    return f"NDBIN\n{arr.ndim}\n{' '.join(map(str, arr.shape))}\n".encode() + _body(arr)


def export_voxels_csv(pattern) -> bytes:
    """One CSV line of coordinates per foreground cell, lexicographic order."""
    arr = as_pattern(pattern)
    coords = np.argwhere(arr)
    header = ",".join(f"x{i}" for i in range(arr.ndim)) + "\n"
    # One % over every coordinate: no Python line per cell.
    line = ",".join(["%d"] * arr.ndim) + "\n"
    return (header + line * len(coords) % tuple(coords.ravel().tolist())).encode("ascii")


def read_pattern(path) -> np.ndarray:
    """Load a PBM or NDBIN file, whichever its first token names."""
    return _read(Path(path).read_bytes())


_WRITERS = {".pbm": write_pbm, ".ndbin": write_ndbin}


def write_pattern(path, pattern) -> None:
    """Save a pattern in the format that the path's extension names."""
    path = Path(path)
    write = _WRITERS.get(path.suffix.lower())
    if write is None:
        raise FormatError(f"cannot infer format from {path.name!r}; use .pbm or .ndbin")
    path.write_bytes(write(pattern))
