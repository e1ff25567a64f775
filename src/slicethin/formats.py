"""Bit-exact pattern file formats: plain PBM (2D) and NDBIN (any k >= 2).

PBM follows the netpbm convention: magic ``P1``, ``width height`` header,
``1`` = black = foreground; pattern axis 0 is the row, axis 1 the column.
NDBIN is a plain-text container: ``NDBIN\\n<k>\\n<N_1> ... <N_k>\\n``
followed by the cells as whitespace-separated bits in row-major order.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .pattern import as_pattern

_MAX_CELLS = 10**8


class FormatError(ValueError):
    """Pattern file format could not be determined."""


class ParseError(ValueError):
    """Malformed pattern file; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _tokens(data: bytes):
    """Yield (token, offset) pairs, skipping whitespace and # comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
        else:
            start = i
            while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
                i += 1
            yield data[start:i], start


def _next_token(tokens, data, what):
    try:
        return next(tokens)
    except StopIteration:
        raise ParseError(f"truncated file: missing {what}", len(data)) from None


def _next_int(tokens, data, what, minimum=1):
    tok, off = _next_token(tokens, data, what)
    # ASCII digits only: int() would also take '1_0' and '+5'.
    if not tok.isdigit():
        raise ParseError(f"bad {what} {tok!r}", off)
    try:
        value = int(tok)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"bad {what} {tok!r}", off) from None
    if value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {value}", off)
    return value


def read_pbm(data: bytes) -> np.ndarray:
    """Parse a plain (ASCII) PBM image into a 2D bool pattern."""
    tokens = _tokens(data)
    magic, off = _next_token(tokens, data, "magic")
    if magic != b"P1":
        raise ParseError(f"unsupported magic {magic!r} (plain PBM 'P1' only)", off)
    width = _next_int(tokens, data, "width")
    height = _next_int(tokens, data, "height")
    if width * height > _MAX_CELLS:
        raise ParseError(f"dimension overflow: {width}x{height}", 0)
    bits = []
    need = width * height
    for tok, off in tokens:
        # Plain PBM allows bits to be packed without separators.
        for j, ch in enumerate(tok):
            if ch == 0x30:
                bits.append(0)
            elif ch == 0x31:
                bits.append(1)
            else:
                raise ParseError(f"invalid bit character {chr(ch)!r}", off + j)
            if len(bits) > need:
                raise ParseError(f"extra data after {need} bits", off + j)
    if len(bits) < need:
        raise ParseError(f"truncated data: got {len(bits)} of {need} bits", len(data))
    return np.array(bits, dtype=bool).reshape(height, width)


def write_pbm(pattern) -> bytes:
    """Serialize a 2D pattern as plain PBM, one image row per line."""
    arr = as_pattern(pattern)
    if arr.ndim != 2:
        raise ValueError("PBM holds 2D patterns only")
    h, w = arr.shape
    lines = [f"P1\n{w} {h}\n"]
    for row in arr.astype(np.uint8):
        lines.append(" ".join(map(str, row)) + "\n")
    return "".join(lines).encode("ascii")


def read_ndbin(data: bytes) -> np.ndarray:
    """Parse an NDBIN file into a k-dimensional bool pattern."""
    tokens = _tokens(data)
    magic, off = _next_token(tokens, data, "magic")
    if magic != b"NDBIN":
        raise ParseError(f"unsupported magic {magic!r} (expected 'NDBIN')", off)
    k = _next_int(tokens, data, "dimension count", minimum=2)
    shape = tuple(_next_int(tokens, data, f"size of dimension {i}") for i in range(k))
    total = math.prod(shape)  # a Python int: np.prod can wrap to 0
    if total > _MAX_CELLS:
        raise ParseError(f"dimension overflow: {'x'.join(map(str, shape))}", 0)
    bits = []
    for tok, off in tokens:
        if tok == b"0":
            bits.append(0)
        elif tok == b"1":
            bits.append(1)
        else:
            raise ParseError(f"invalid bit token {tok!r}", off)
        if len(bits) > total:
            raise ParseError(f"payload exceeds the {total} cells declared", off)
    if len(bits) != total:
        raise ParseError(
            f"payload has {len(bits)} cells but header declares {total}", len(data)
        )
    return np.array(bits, dtype=bool).reshape(shape)


def write_ndbin(pattern) -> bytes:
    """Serialize a pattern as NDBIN, one last-axis stride per line."""
    arr = as_pattern(pattern)
    header = f"NDBIN\n{arr.ndim}\n{' '.join(map(str, arr.shape))}\n"
    rows = arr.astype(np.uint8).reshape(-1, arr.shape[-1])
    body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return (header + body).encode("ascii")


def export_voxels_csv(pattern) -> bytes:
    """One CSV line of coordinates per foreground cell, lexicographic order."""
    arr = as_pattern(pattern)
    header = ",".join(f"x{i}" for i in range(arr.ndim))
    lines = [header]
    for c in np.argwhere(arr):
        lines.append(",".join(map(str, c)))
    return ("\n".join(lines) + "\n").encode("ascii")


def read_pattern(path, fmt: str | None = None) -> np.ndarray:
    """Load a pattern file, dispatching on extension unless ``fmt`` is given."""
    path = Path(path)
    fmt = fmt or _format_for(path)
    data = path.read_bytes()
    return read_pbm(data) if fmt == "pbm" else read_ndbin(data)


def write_pattern(path, pattern, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = fmt or _format_for(path)
    data = write_pbm(pattern) if fmt == "pbm" else write_ndbin(pattern)
    path.write_bytes(data)


def _format_for(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".pbm":
        return "pbm"
    if suffix == ".ndbin":
        return "ndbin"
    raise FormatError(f"cannot infer format from {path.name!r}; use .pbm or .ndbin")
