"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure). Random corpora are seeded and therefore reproducible.
"""

import numpy as np
import pytest

from slicethin.baselines import gh_thin, zs_thin
from slicethin.formats import read_ndbin, read_pbm, write_ndbin, write_pbm
from slicethin.metrics import evaluate
from slicethin.pattern import component_count
from slicethin.shapes import ShapeSpec, generate
from slicethin.thinning import thin


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, f"{name}: {detail}"


def hline(length, pad=2):
    arr = np.zeros((2 * pad + 1, length + 2 * pad), bool)
    arr[pad, pad : pad + length] = True
    return arr


def diag(length, pad=2):
    n = length + 2 * pad
    arr = np.zeros((n, n), bool)
    for i in range(length):
        arr[pad + i, pad + i] = True
    return arr


def make_corpus():
    """Seeded random patterns with their default-schedule thinning results."""
    rng = np.random.default_rng(20240915)
    entries = []
    for density in (0.3, 0.5, 0.7):
        for _ in range(200):
            p = rng.random((32, 32)) < density
            sk, it = thin(p)
            entries.append((p, sk, it))
    for _ in range(30):
        p = rng.random((12, 12, 12)) < 0.5
        sk, it = thin(p)
        entries.append((p, sk, it))
    return entries


@pytest.fixture(scope="module")
def random_corpus():
    return make_corpus()


def test_c1_zs_eliminates_2x2_square():
    arr = np.zeros((4, 4), bool)
    arr[1:3, 1:3] = True
    sk, _ = zs_thin(arr)
    check("criterion 1: ZS eliminates isolated 2x2 square", not sk.any())


def test_c2_line_fixed_points():
    ok = True
    detail = ""
    for length in range(3, 21):
        h, v, d = hline(length), hline(length).T, diag(length)
        for algo, fn in (("zs", zs_thin), ("gh", gh_thin), ("nd", thin)):
            for name, arr in (("h", h), ("v", v)):
                if not np.array_equal(fn(arr)[0], arr):
                    ok, detail = False, f"{algo} moved {name}-line of length {length}"
        for algo, fn in (("gh", gh_thin), ("nd", thin)):
            if not np.array_equal(fn(d)[0], d):
                ok, detail = False, f"{algo} moved diagonal of length {length}"
    check("criterion 2: 1-pixel lines are fixed points", ok, detail)


def test_c3_square_directional_schedules():
    square = np.ones((7, 7), bool)
    col = np.zeros((7, 7), bool)
    col[:, 3] = True
    row = np.zeros((7, 7), bool)
    row[3, :] = True
    west = np.zeros((7, 7), bool)
    west[:, 0] = True
    ok = (
        np.array_equal(thin(square, "1fb")[0], col)
        and np.array_equal(thin(square, "0fb")[0], row)
        # Golden from the set-based simulation oracle: forward-only
        # horizontal erosion eats the square from the east down to the
        # west column.
        and np.array_equal(thin(square, "1f")[0], west)
    )
    check("criterion 3: directional square erosions match goldens", ok)


def test_c4_connectivity_preservation(random_corpus):
    failures = [
        (p, sk)
        for p, sk, _ in random_corpus
        if component_count(p) != component_count(sk)
    ]
    check(
        "criterion 4: component count preserved on random corpora",
        not failures,
        f"{len(failures)} of {len(random_corpus)} patterns changed count",
    )


def test_c5_anti_growth_idempotence_termination(random_corpus):
    ok = True
    detail = ""
    for p, sk, it in random_corpus:
        if (sk & ~p).any():
            ok, detail = False, "skeleton grew outside input"
            break
        if it > int(p.sum()) + 1:
            ok, detail = False, f"iterations {it} exceed foreground+1"
            break
        again, it2 = thin(sk)
        if not np.array_equal(again, sk) or it2 != 1:
            ok, detail = False, "re-thinning changed the skeleton"
            break
    check("criterion 5: anti-growth, idempotence, termination bound", ok, detail)


def test_c6_metric_correctness():
    unit_width = [hline(n) for n in range(3, 21)]
    unit_width += [hline(n).T for n in range(3, 21)]
    unit_width += [diag(n) for n in range(3, 21)]
    ok = all(evaluate(s, s, 0).m_t == 1.0 for s in unit_width)
    for h, w in [(2, 2), (2, 5), (3, 3), (4, 7)]:
        solid = np.zeros((h + 2, w + 2), bool)
        solid[1 : 1 + h, 1 : 1 + w] = True
        ok = ok and evaluate(solid, solid, 0).m_t == 0.0
    sample = unit_width[0]
    ok = ok and evaluate(sample, sample, 0).s_r == 1.0
    check("criterion 6: m_t and s_r exact values", ok)


def test_c7_comparative_ordering_on_shapes():
    corpus = {
        "square": generate(ShapeSpec("square", (19, 19), {"side": 15})),
        "disc": generate(ShapeSpec("disc", (21, 21), {"radius": 8})),
        "triangle": generate(ShapeSpec("triangle", (19, 21), {"base": 17, "height": 15})),
    }
    ok = True
    detail = ""
    for name, p in corpus.items():
        mt_zs = evaluate(p, *zs_thin(p)).m_t
        mt_gh = evaluate(p, *gh_thin(p)).m_t
        mt_nd = evaluate(p, *thin(p)).m_t
        if not (mt_nd >= mt_zs and mt_gh >= mt_zs):
            ok = False
            detail = f"{name}: zs={mt_zs} gh={mt_gh} nd={mt_nd}"
    check("criterion 7: m_t ordering nd,gh >= zs on shape corpus", ok, detail)


def test_c8_medial_plane_pipeline():
    box = np.ones((9, 9, 5), bool)
    plane, _ = thin(box, "2fb")
    plane_ok = (plane.sum(axis=2) <= 1).all() and plane.any()
    axis_set, _ = thin(box, "2fb;1fb,0fb")
    further_ok = (
        axis_set.any()
        and not (axis_set & ~plane).any()
        and axis_set.sum() < plane.sum()
    )
    check("criterion 8: z-erosion medial plane, then medial axis", plane_ok and further_ok)


def test_c9_format_roundtrips():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(500):
        shape = tuple(rng.integers(1, 9, size=2))
        arr = rng.random(shape) < rng.random()
        if not np.array_equal(read_pbm(write_pbm(arr)), arr):
            ok = False
        if not np.array_equal(read_ndbin(write_ndbin(arr)), arr):
            ok = False
    for _ in range(500):
        shape = tuple(rng.integers(1, 6, size=3))
        arr = rng.random(shape) < rng.random()
        if not np.array_equal(read_ndbin(write_ndbin(arr)), arr):
            ok = False
    check("criterion 9: 1000 random patterns round-trip bit-exactly", ok)
