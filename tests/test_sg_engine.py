import math
import random
import zlib

import numpy as np
import pytest

from helpers import FoldOracle

from dynreg.algebra import FiniteSemigroup, check_variety
from dynreg.engines import make_naive_engine, make_sg_engine
from dynreg.errors import InternalError, NotSg
from dynreg.gallery import ab_star_semigroup, gallery, s3


def rees_matrix_semigroup(gtable, sandwich):
    """M0(G, I, J, P) as an explicit table; entries None in P mean zero."""
    n_g = len(gtable)
    n_i = len(sandwich[0])
    n_j = len(sandwich)
    elems = [(i, g, j) for i in range(n_i) for g in range(n_g) for j in range(n_j)]
    idx = {e: k for k, e in enumerate(elems)}
    zero = len(elems)
    table = []
    for (i, g, j) in elems:
        row = []
        for (i2, g2, j2) in elems:
            p = sandwich[j][i2]
            if p is None:
                row.append(zero)
            else:
                row.append(idx[(i, gtable[gtable[g][p]][g2], j2)])
        row.append(zero)
        table.append(row)
    table.append([zero] * (zero + 1))
    names = ["(%d,%d,%d)" % e for e in elems] + ["0"]
    return FiniteSemigroup(table, names=names)


Z2T = [[0, 1], [1, 0]]
Z3T = [[(a + b) % 3 for b in range(3)] for a in range(3)]


def test_rejects_non_sg():
    with pytest.raises(NotSg):
        make_sg_engine(s3(), [0, 1])


def test_ab_star_worked_example():
    s = ab_star_semigroup()
    ids = {n: s.id_of(n) for n in s.names}
    e = make_sg_engine(s, [ids["a"], ids["a"], ids["b"], ids["b"]], debug_checks=True)
    assert e.query() == ids["ab"]
    e.update(1, ids["b"])
    assert e.query() == ids["ab"]
    e.update(0, ids["b"])
    assert e.query() == ids["b"]


def test_single_letter_word():
    s = ab_star_semigroup()
    e = make_sg_engine(s, [s.id_of("a")])
    assert e.query() == s.id_of("a")
    e.update(0, s.id_of("0"))
    assert e.query() == s.id_of("0")


def test_validate_raises_internal_error_on_corrupt_count():
    # validate() raises rather than asserts, so the checks also run under -O
    s = ab_star_semigroup()
    ids = {n: s.id_of(n) for n in s.names}
    e = make_sg_engine(s, [ids[c] for c in "aabbab"], debug_checks=True)
    for layer in e.layers:
        layer.count += 1
        with pytest.raises(InternalError, match="count out of sync"):
            e.top.validate()
        layer.count -= 1
    e.top.validate()


def _run_entry(engine):
    """(run layer, key, (i, g, j)) of the first run entry below a run layer."""
    layer = next(lay for lay in engine.layers if hasattr(lay, "rv"))
    key, label = next(
        (k, lab) for k, lab in layer.down.inp.items() if lab in layer.cls
    )
    return layer, key, layer.rv.coord[label]


@pytest.mark.parametrize("corrupt", ["mass", "cell"])
def test_validate_raises_internal_error_on_corrupt_run_entry(corrupt):
    # M0(Z3; 2x2) has one regular class with a nontrivial group, so its run
    # entries carry both an egg-box cell (i, j) and a group mass g
    s = rees_matrix_semigroup(Z3T, [[0, None], [1, 0]])
    rng = random.Random(7)
    e = make_sg_engine(s, [rng.randrange(s.size - 1) for _ in range(30)],
                       debug_checks=True)
    layer, key, (i, g, j) = _run_entry(e)
    if corrupt == "mass":
        bad = (i, (g + 1) % 3, j)
    else:
        bad = (1 - i, g, 1 - j)
    layer.down.inp.update(key, layer.rv.uncoord[bad])
    with pytest.raises(InternalError):
        e.top.validate()


def test_empty_word():
    s = ab_star_semigroup()
    e = make_sg_engine(s, [])
    assert e.query() is None


@pytest.mark.parametrize("name", [
    "U1", "U2", "Z3", "Z6", "abstar", "zg5", "asq0", "nilnc", "U1xZ3", "Z2xzg5",
])
def test_gallery_differential_with_debug_checks(gal, name):
    s = gal[name]
    rng = random.Random(zlib.crc32(name.encode()))
    for n in (1, 2, 3, 7, 33):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = make_sg_engine(s, list(word), debug_checks=True)
        ora = make_naive_engine(s, list(word))
        assert eng.query() == ora.query()
        for _ in range(200):
            p, a = rng.randrange(n), rng.randrange(s.size)
            eng.update(p, a)
            ora.update(p, a)
            assert eng.query() == ora.query(), (name, n, p, a)


@pytest.mark.parametrize("label,gt,sw", [
    ("M0(Z2,2x2,diag)", Z2T, [[0, None], [None, 0]]),
    ("M0(Z3,2x2,mixed)", Z3T, [[0, None], [1, 0]]),
    ("M0(Z2,1x2)", Z2T, [[0], [None]]),
])
def test_rees_matrix_semigroups_differential(label, gt, sw):
    s = rees_matrix_semigroup(gt, sw)
    rng = random.Random(len(label))
    for n in (2, 3, 9, 40):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = make_sg_engine(s, list(word), debug_checks=True)
        ora = make_naive_engine(s, list(word))
        for _ in range(250):
            p, a = rng.randrange(n), rng.randrange(s.size)
            eng.update(p, a)
            ora.update(p, a)
            assert eng.query() == ora.query(), (label, n, p, a)


def test_stable_semigroup_of_double_cycle_language():
    # 13 singleton J-classes make a 19-layer stack: restructure cascades are
    # expensive (an n-independent constant) but the typical op stays tiny
    from dynreg.syntactic import analyze_regex

    m, sd, rep = analyze_regex("((abc)(abc))*((acb)(acb))*", "abc")
    s = sd.stable
    rng = random.Random(13)
    n = 2**12
    word = [rng.randrange(s.size) for _ in range(n)]
    eng = make_sg_engine(s, list(word))
    oracle = FoldOracle(s, list(word))
    costs = []
    for _ in range(2500):
        p, a = rng.randrange(n), rng.randrange(s.size)
        before = eng.op_count
        eng.update(p, a)
        costs.append(eng.op_count - before)
        oracle.update(p, a)
        assert eng.query() == oracle.query()
    costs.sort()
    median = costs[len(costs) // 2]
    assert median <= 30 * math.log2(math.log2(n))


def test_probe_growth_is_doubly_logarithmic(gal):
    s = gal["abstar"]
    fitted = None
    for n in (2**10, 2**14, 2**18):
        rng = random.Random(21)
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = make_sg_engine(s, list(word))
        worst = 0
        for _ in range(1200):
            before = eng.op_count
            eng.update(rng.randrange(n), rng.randrange(s.size))
            eng.query()
            worst = max(worst, eng.op_count - before)
        term = math.log2(math.log2(n))
        if fitted is None:
            fitted = worst / term
        else:
            assert worst <= 2 * fitted * term, (n, worst, fitted)


def test_structural_invariants_after_every_mutation(gal):
    # debug_checks runs the full pair/run validators after each update
    s = gal["abstar"]
    rng = random.Random(2)
    word = [rng.randrange(s.size) for _ in range(24)]
    eng = make_sg_engine(s, word, debug_checks=True)
    for _ in range(300):
        eng.update(rng.randrange(24), rng.randrange(s.size))
    assert eng.query() == make_naive_engine(s, eng.snapshot()).query()


def _edit_sg_semigroup():
    from dynreg.syntactic import analyze_regex

    _, sd, _ = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")
    return sd.stable


def test_edge_paths_differential_on_edit_sg_semigroup():
    # The stable semigroup of (a+b+c)*bc*x(a+b+c)* peels J-classes {0} and
    # {1, 2} as run layers. Edits are biased to move a letter into or out of
    # those classes, which drives the in-place C relabels, run splits and
    # merges, the pair layer's count <= 2 branches and its orphan re-attach.
    s = _edit_sg_semigroup()
    classes = [{0}, {1, 2}]
    rng = random.Random(zlib.crc32(b"edit-sg edge paths"))
    for n in (1, 2, 3, 4, 5, 7, 65):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = make_sg_engine(s, list(word), debug_checks=True)
        ora = make_naive_engine(s, list(word))
        assert eng.query() == ora.query()
        for _ in range(400):
            p = rng.randrange(n)
            cls = rng.choice(classes)
            if rng.random() < 0.8:
                inside = word[p] in cls
                a = rng.choice([x for x in range(s.size) if (x in cls) != inside])
            else:
                a = rng.randrange(s.size)
            word[p] = a
            eng.update(p, a)
            ora.update(p, a)
            assert eng.query() == ora.query(), (n, p, a)


# -- bulk build: edge sizes and the array collapse ---------------------------

SG_SEMIGROUPS = {name: s for name, s in gallery().items() if check_variety(s, "SG")}


@pytest.mark.parametrize("name", list(SG_SEMIGROUPS))
def test_build_edge_sizes_with_debug_checks(gal, name):
    # odd counts end in a triple, and short words leave lower layers empty
    s = gal[name]
    rng = random.Random(zlib.crc32(f"sg build sizes {name}".encode()))
    for n in (0, 1, 2, 3, 4, 5, 64, 1000):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = make_sg_engine(s, list(word), debug_checks=True)
        ora = make_naive_engine(s, list(word))
        assert eng.query() == ora.query(), (name, n)
        for _ in range(200 if n else 0):
            p, a = rng.randrange(n), rng.randrange(s.size)
            eng.update(p, a)
            ora.update(p, a)
            assert eng.query() == ora.query(), (name, n, p, a)


def _fold_collapse(layer, keys, labels):
    """Letter-by-letter collapse: (key, (i, g, j)) for each run, keyed by
    its last letter and carrying its exact mass; (key, letter) for the
    other letters."""
    rv = layer.rv
    out = []
    run = None  # (i, g, j, key) of the open run
    for key, a in zip(keys, labels):
        if a not in layer.cls:
            if run is not None:
                out.append((run[3], run[:3]))
                run = None
            out.append((key, a))
            continue
        ia, ga, ja = rv.coord[a]
        if run is not None:
            p = rv.matrix[run[2]][ia]
            if p is not None:
                run = (run[0], rv.g_mul(run[1], p, ga), ja, key)
                continue
            out.append((run[3], run[:3]))
        run = (ia, ga, ja, key)
    if run is not None:
        out.append((run[3], run[:3]))
    return out


COLLAPSE_CASES = [pytest.param(name, s, id=name) for name, s in [
    *SG_SEMIGROUPS.items(),
    ("M0(Z3,2x2,mixed)", rees_matrix_semigroup(Z3T, [[0, None], [1, 0]])),
    ("M0(Z2,2x2,diag)", rees_matrix_semigroup(Z2T, [[0, None], [None, 0]])),
]]


@pytest.mark.parametrize("name,s", COLLAPSE_CASES)
def test_array_collapse_matches_letter_fold(name, s):
    # the Rees matrix cases and the groups carry nontrivial run masses
    eng = make_sg_engine(s, [0])
    run_layers = [lay for lay in eng.layers if hasattr(lay, "rv")]
    rng = random.Random(zlib.crc32(f"sg collapse {name}".encode()))
    for layer in run_layers:
        cls = sorted(layer.cls)
        for n in (0, 1, 2, 3, 50, 500):
            keys = sorted(rng.sample(range(1, 4 * n + 2), n))
            labels = [rng.choice(cls) if rng.random() < 0.8
                      else rng.randrange(layer.s0.size) for _ in range(n)]
            got_keys, got_labels = layer._collapse(np.array(keys, dtype=np.int64),
                                                   np.array(labels, dtype=np.uint8))
            got = [(k, layer.rv.coord[a]) if a in layer.cls else (k, a)
                   for k, a in zip(got_keys.tolist(), got_labels.tolist())]
            assert got == _fold_collapse(layer, keys, labels), (name, n)
