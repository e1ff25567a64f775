"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against coordinate sets and scalar
scans, not against the numpy implementations under test.
"""

import math
from itertools import product

import numpy as np

from slicethin.formats import ParseError


def foreground_coords(arr):
    """The foreground cells of a numpy pattern, as a set of coordinate tuples."""
    return {tuple(map(int, c)) for c in np.argwhere(arr)}


def ball(shape, p):
    """In-bounds coords at Chebyshev distance <= 1 from p, p included."""
    ranges = [range(max(x - 1, 0), min(x + 1, n - 1) + 1) for x, n in zip(p, shape)]
    return set(product(*ranges))


def components_oracle(fg, shape):
    """Count (3^k - 1)-connected components by BFS flood fill."""
    remaining = set(fg)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            c = stack.pop()
            for nb in ball(shape, c):
                if nb in remaining:
                    remaining.remove(nb)
                    stack.append(nb)
    return count


def nuw_oracle(fg, shape):
    """Pixels inside any all-foreground 2x2 window, by direct window scan."""
    h, w = shape
    marked = set()
    for x in range(h - 1):
        for y in range(w - 1):
            window = {(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)}
            if window <= fg:
                marked |= window
    return marked


def thin_deletable_oracle(fg, shape, p, axis, sign):
    npm = ball(shape, p)
    if len(npm & fg) <= 2:
        return False
    ahead = [f for f in npm if f != p and (f[axis] - p[axis]) * sign > 0 and f in fg]
    for f in ahead:
        nfm = {c for c in ball(shape, f) if (c[axis] - f[axis]) * sign < 0}
        s = (nfm & npm) - {p}
        if not (s & fg):
            return False
    return True


def subcycle_oracle(fg, shape, axis, dirs):
    other = [d for d in range(len(shape)) if d != axis]
    for fixed in product(*[range(shape[d]) for d in other]):

        def coord(i):
            c = list(fixed)
            c.insert(axis, i)
            return tuple(c)

        n = shape[axis]
        i = 0
        while i < n:
            if coord(i) not in fg:
                i += 1
                continue
            back = i
            while i < n and coord(i) in fg:
                i += 1
            front = i - 1
            if front == back:
                continue
            if "f" in dirs and thin_deletable_oracle(fg, shape, coord(front), axis, +1):
                fg.discard(coord(front))
            if (
                "b" in dirs
                and coord(back + 1) in fg
                and thin_deletable_oracle(fg, shape, coord(back), axis, -1)
            ):
                fg.discard(coord(back))


def phases_oracle(text):
    """Reference parser of schedule text, for valid text only: phases split
    by ';', sub-cycles by ',', each an axis index then 'f', 'b' or 'fb'."""
    phases = []
    for phase in text.split(";"):
        subs = []
        for sub in phase.split(","):
            sub = sub.strip()
            digits = sub.rstrip("fb")
            dirs = sub[len(digits):]
            if not digits.isdigit() or dirs not in ("f", "b", "fb"):
                raise ValueError(f"bad sub-cycle {sub!r}")
            subs.append((int(digits), dirs))
        phases.append(subs)
    return phases


def thin_oracle(fg, shape, phases=None):
    """Set-based reference of the sequential thinning procedure."""
    if phases is None:
        phases = [[(axis, "fb") for axis in range(len(shape) - 1, -1, -1)]]
    fg = set(fg)
    iterations = 0
    for phase in phases:
        while True:
            iterations += 1
            before = set(fg)
            for axis, dirs in phase:
                subcycle_oracle(fg, shape, axis, dirs)
            if fg == before:
                break
    return fg, iterations


def _ring(fg, x, y):
    """P2..P9 scalar neighbor values; out-of-bounds cells are background."""
    return (
        (x - 1, y) in fg,
        (x - 1, y + 1) in fg,
        (x, y + 1) in fg,
        (x + 1, y + 1) in fg,
        (x + 1, y) in fg,
        (x + 1, y - 1) in fg,
        (x, y - 1) in fg,
        (x - 1, y - 1) in fg,
    )


def zs_deletable_oracle(ring, sub):
    """Zhang-Suen deletability of a pixel with neighbours ``ring`` = P2..P9:
    2 <= BP <= 6 and AP = 1, plus P2*P4*P6 = 0 and P4*P6*P8 = 0 on the first
    sub-iteration (southeast boundary), or P2*P4*P8 = 0 and P2*P6*P8 = 0 on
    the second (northwest boundary).
    """
    p2, p3, p4, p5, p6, p7, p8, p9 = ring
    seq = (p2, p3, p4, p5, p6, p7, p8, p9, p2)
    bp = sum(seq[:-1])
    ap = sum(not a and b for a, b in zip(seq, seq[1:]))
    if sub == 0:
        corner = (p2 and p4 and p6) or (p4 and p6 and p8)
    else:
        corner = (p2 and p4 and p8) or (p2 and p6 and p8)
    return 2 <= bp <= 6 and ap == 1 and not corner


def gh_deletable_oracle(ring, sub):
    """Guo-Hall deletability of a pixel with neighbours ``ring`` = P2..P9:
    connectivity number CP = 1, NP = min(NP1, NP2) in {2, 3}, and a zero
    directional term: (P2|P3|~P5) & P4 on the first (odd) sub-iteration,
    (P6|P7|~P9) & P8 on the second.
    """
    p2, p3, p4, p5, p6, p7, p8, p9 = ring
    cp = (
        (not p2 and (p3 or p4))
        + (not p4 and (p5 or p6))
        + (not p6 and (p7 or p8))
        + (not p8 and (p9 or p2))
    )
    np1 = (p9 or p2) + (p3 or p4) + (p5 or p6) + (p7 or p8)
    np2 = (p2 or p3) + (p4 or p5) + (p6 or p7) + (p8 or p9)
    if sub == 0:
        directional = (p2 or p3 or not p5) and p4
    else:
        directional = (p6 or p7 or not p9) and p8
    return cp == 1 and min(np1, np2) in (2, 3) and not directional


def _mark_sweep_oracle(fg, deletable):
    fg = set(fg)
    iterations = 0
    while True:
        iterations += 1
        changed = False
        for sub in (0, 1):
            marked = {(x, y) for x, y in fg if deletable(_ring(fg, x, y), sub)}
            if marked:
                fg -= marked
                changed = True
        if not changed:
            break
    return fg, iterations


def zs_oracle(fg, shape):
    return _mark_sweep_oracle(fg, zs_deletable_oracle)


def gh_oracle(fg, shape):
    return _mark_sweep_oracle(fg, gh_deletable_oracle)


# ---------------------------------------------------------------- ruggedize


def ruggedize_oracle(arr, probability, seed):
    """``arr`` with each boundary cell (one with a face-neighbour in the
    background or outside the grid) deleted where its draw is below
    ``probability``: the boundary cells take the draws of numpy's
    ``default_rng(seed).random()`` in lexicographic order."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    fg = foreground_coords(arr)

    def face_neighbours(p):
        for axis in range(len(p)):
            for step in (-1, 1):
                yield p[:axis] + (p[axis] + step,) + p[axis + 1 :]

    boundary = sorted(p for p in fg if any(q not in fg for q in face_neighbours(p)))
    draws = np.random.default_rng(seed).random(len(boundary))
    out = np.array(arr, bool)
    for p, draw in zip(boundary, draws):
        if draw < probability:
            out[p] = False
    return out


# ---------------------------------------------------------------- file formats
# The byte-at-a-time tokenizer readers the numpy codec in slicethin.formats
# replaced: same arrays, same ParseError offsets.

MAX_CELLS = 10**8
MAX_DIMS = 8


def _tokens(data):
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


def _next_int(tokens, data, what, minimum=1, maximum=None):
    tok, off = _next_token(tokens, data, what)
    if not tok.isdigit():
        raise ParseError(f"bad {what} {tok!r}", off)
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", off) from None
    if value < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {value}", off)
    if maximum is not None and value > maximum:
        raise ParseError(f"{what} must be <= {maximum}, got {value}", off)
    return value


def pbm_oracle(data):
    tokens = _tokens(data)
    magic, off = _next_token(tokens, data, "magic")
    if magic != b"P1":
        raise ParseError(f"unsupported magic {magic!r}", off)
    width = _next_int(tokens, data, "width")
    height = _next_int(tokens, data, "height")
    if width * height > MAX_CELLS:
        raise ParseError(f"dimension overflow: {width}x{height}", 0)
    bits = []
    need = width * height
    for tok, off in tokens:
        # Bits may be packed without separators.
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


def ndbin_oracle(data):
    tokens = _tokens(data)
    magic, off = _next_token(tokens, data, "magic")
    if magic != b"NDBIN":
        raise ParseError(f"unsupported magic {magic!r}", off)
    k = _next_int(tokens, data, "dimension count", minimum=2, maximum=MAX_DIMS)
    shape = tuple(_next_int(tokens, data, f"size of dimension {i}") for i in range(k))
    total = math.prod(shape)
    if total > MAX_CELLS:
        raise ParseError(f"dimension overflow: {shape}", 0)
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
        raise ParseError(f"payload has {len(bits)} cells but header declares {total}", len(data))
    return np.array(bits, dtype=bool).reshape(shape)
