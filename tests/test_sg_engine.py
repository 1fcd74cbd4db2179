import math
import random
import zlib

import numpy as np
import pytest

from helpers import FoldOracle

from dynreg import veb
from dynreg.algebra import FiniteSemigroup, check_variety
from dynreg.engines import make_naive_engine, make_sg_engine, sg
from dynreg.engines.sg import GROUP_MAX
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


class CheckedSgEngine(sg.SgEngine):
    """An sg engine that checks its whole layer stack with validate() after
    the build and after every update."""

    def __init__(self, semigroup, word):
        super().__init__(semigroup, word)
        self.top.validate()

    def update(self, pos, letter):
        super().update(pos, letter)
        self.top.validate()


def thick_and_leaves(monkeypatch, ns):
    """Yield the word lengths ns twice: with FEW_MAX = 0, so every layer is
    thick and the layer rules run at every size, then with the default
    FEW_MAX, where layers of at most FEW_MAX letters are leaves."""
    for few_max in (0, veb.FEW_MAX):
        monkeypatch.setattr(veb, "FEW_MAX", few_max)
        yield from ns


def test_rejects_non_sg():
    with pytest.raises(NotSg):
        make_sg_engine(s3(), [0, 1])


def test_ab_star_worked_example():
    s = ab_star_semigroup()
    ids = {n: s.id_of(n) for n in s.names}
    e = CheckedSgEngine(s, [ids["a"], ids["a"], ids["b"], ids["b"]])
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


def _run_entry(engine):
    """(run layer, key, (i, g, j)) of the first run entry below a run layer."""
    layer = next(lay for lay in engine.layers if isinstance(lay.rule, sg._RunRule))
    key, label = next(
        (k, lab) for k, lab in layer.down.inp.items() if lab in layer.rule.cls
    )
    return layer, key, layer.rule.rv.coord[label]


@pytest.mark.parametrize("corrupt", ["mass", "cell"])
def test_validate_raises_internal_error_on_corrupt_run_entry(corrupt, monkeypatch):
    # M0(Z3; 2x2) has one regular class with a nontrivial group, so its run
    # entries carry both an egg-box cell (i, j) and a group mass g; with
    # FEW_MAX = 0 the run layer is thick, so validate() checks its entries
    monkeypatch.setattr(veb, "FEW_MAX", 0)
    s = rees_matrix_semigroup(Z3T, [[0, None], [1, 0]])
    rng = random.Random(7)
    e = CheckedSgEngine(s, [rng.randrange(s.size - 1) for _ in range(30)])
    layer, key, (i, g, j) = _run_entry(e)
    if corrupt == "mass":
        bad = (i, (g + 1) % 3, j)
    else:
        bad = (1 - i, g, 1 - j)
    layer.down.inp.update(key, layer.rule.rv.uncoord[bad])
    with pytest.raises(InternalError):
        e.top.validate()


def test_empty_word():
    s = ab_star_semigroup()
    e = make_sg_engine(s, [])
    assert e.query() is None


@pytest.mark.parametrize("name", [
    "U1", "U2", "Z3", "Z6", "abstar", "zg5", "asq0", "nilnc", "U1xZ3", "Z2xzg5",
])
def test_gallery_differential_with_debug_checks(gal, name, monkeypatch):
    s = gal[name]
    rng = random.Random(zlib.crc32(name.encode()))
    for n in thick_and_leaves(monkeypatch, (1, 2, 3, 7, 33)):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = CheckedSgEngine(s, list(word))
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
def test_rees_matrix_semigroups_differential(label, gt, sw, monkeypatch):
    s = rees_matrix_semigroup(gt, sw)
    rng = random.Random(len(label))
    for n in thick_and_leaves(monkeypatch, (2, 3, 9, 40)):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = CheckedSgEngine(s, list(word))
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


def test_structural_invariants_after_every_mutation(gal, monkeypatch):
    # CheckedSgEngine runs the full pair/run validators after each update
    s = gal["abstar"]
    rng = random.Random(2)
    for n in thick_and_leaves(monkeypatch, (24,)):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = CheckedSgEngine(s, word)
        for _ in range(300):
            eng.update(rng.randrange(n), rng.randrange(s.size))
        assert eng.query() == make_naive_engine(s, eng.snapshot()).query()


def _edit_sg_semigroup():
    from dynreg.syntactic import analyze_regex

    _, sd, _ = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")
    return sd.stable


def test_edge_paths_differential_on_edit_sg_semigroup(monkeypatch):
    # The stable semigroup of (a+b+c)*bc*x(a+b+c)* peels J-classes {0} and
    # {1, 2} as run layers. Edits are biased to move a letter into or out of
    # those classes, which drives the in-place C relabels, run splits and
    # merges, the pair layer's count <= 2 branches and its orphan re-attach.
    s = _edit_sg_semigroup()
    classes = [{0}, {1, 2}]
    rng = random.Random(zlib.crc32(b"edit-sg edge paths"))
    for n in thick_and_leaves(monkeypatch, (1, 2, 3, 4, 5, 7, 65)):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = CheckedSgEngine(s, list(word))
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


def test_thin_layers_pushed_past_few_max_by_edits():
    # A word of 1, a and b is one long stretch for the edit-sg semigroup, so
    # the maps below the first pair layer hold a key or none and keep sorted
    # key lists. Separators (x, ax, bx) substituted in push those maps past
    # FEW_MAX keys into bucket mode; reverting them shrinks the maps again,
    # and they stay in bucket mode. The validators run after every edit.
    s = _edit_sg_semigroup()
    rng = random.Random(zlib.crc32(b"edit-sg thin layers"))
    n = 400
    word = [rng.choice([0, 1, 2]) for _ in range(n)]
    eng = CheckedSgEngine(s, list(word))
    ora = make_naive_engine(s, list(word))
    thin = [m for layer in eng.layers for m in layer.maps() if m.few is not None]
    assert thin and all(len(m) <= 1 for m in thin)
    plan = [(p, rng.choice([3, 4, 5])) for p in rng.sample(range(n), 200)]
    plan += [(p, rng.choice([0, 1, 2])) for p, _ in plan]
    for p, a in plan:
        eng.update(p, a)
        ora.update(p, a)
        assert eng.query() == ora.query(), (p, a)
    crossed = [m for m in thin if m.few is None]
    assert crossed and all(len(m) <= veb.FEW_MAX for m in crossed)


# -- leaves: layers of at most FEW_MAX letters ------------------------------


def _counters(layers):
    """Steps and map probes of each layer."""
    return [(layer.steps, *[m.probes for m in layer.maps()]) for layer in layers]


def test_edit_that_reaches_a_leaf_leaves_the_layers_below_alone():
    # The long-stretch word of the thin-layer test: the first pair layer of
    # {a, b} holds one letter and is a leaf. A few separators substituted in
    # split the stretch, so edits reach the leaf; neither they nor the
    # queries touch a counter of a layer below it.
    s = _edit_sg_semigroup()
    rng = random.Random(zlib.crc32(b"edit-sg thin layers"))
    n = 400
    word = [rng.choice([0, 1, 2]) for _ in range(n)]
    eng = CheckedSgEngine(s, list(word))
    ora = make_naive_engine(s, list(word))
    depth = next(d for d, layer in enumerate(eng.layers) if layer.inp.few is not None)
    leaf, below = eng.layers[depth], eng.layers[depth + 1:]
    assert isinstance(leaf.rule, sg._PairRule) and below
    reached = 0
    outstanding = []
    for _ in range(300):
        if len(outstanding) == 6:
            p, a = outstanding.pop(0)
        else:
            p, a = rng.randrange(n), rng.choice([3, 4, 5])
            outstanding.append((p, eng.word[p]))
        before, steps = _counters(below), leaf.steps
        eng.update(p, a)
        ora.update(p, a)
        reached += leaf.steps > steps
        assert eng.query() == ora.query(), (p, a)
        assert _counters(below) == before, (p, a)
        assert leaf.inp.few is not None
    assert reached > 100, reached


@pytest.mark.parametrize("n", [veb.FEW_MAX, veb.FEW_MAX + 1])
def test_top_leaf_then_thick_differential(n):
    # n = FEW_MAX: the top layer is a leaf and every query folds the word;
    # one letter more and it is thick, with leaves below it
    for s in (_edit_sg_semigroup(), rees_matrix_semigroup(Z3T, [[0, None], [1, 0]])):
        rng = random.Random(zlib.crc32(f"sg leaf top {n} {s.size}".encode()))
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = CheckedSgEngine(s, list(word))
        ora = make_naive_engine(s, list(word))
        assert (eng.top.inp.few is not None) == (n <= veb.FEW_MAX)
        assert eng.query() == ora.query()
        for _ in range(400):
            p, a = rng.randrange(n), rng.randrange(s.size)
            eng.update(p, a)
            ora.update(p, a)
            assert eng.query() == ora.query(), (n, p, a)


def test_leaf_past_few_max_turns_the_leaf_below_thick_in_its_replay():
    # x letters between identity letters (1): the first run layer keeps each
    # x and collapses each stretch of 1s, the pair layer below it pairs
    # them, and the run layer of {a, b} below that sees separators only, so
    # its layer below holds as many letters as it does. x substituted for
    # 1s one by one grows the run layer of {a, b} past FEW_MAX; its replay
    # then takes the layer below past FEW_MAX within the same edit.
    s = _edit_sg_semigroup()
    one, x = 0, 3
    n = 4 * veb.FEW_MAX + 8
    word = [x] * veb.FEW_MAX + [one] * (n - veb.FEW_MAX)
    eng = CheckedSgEngine(s, list(word))
    ora = make_naive_engine(s, list(word))
    runs, below = eng.layers[2], eng.layers[3]
    assert isinstance(runs.rule, sg._RunRule) and isinstance(below.rule, sg._PairRule)
    assert runs.inp.few is not None and below.inp.few is not None
    turned = {}
    for p in range(veb.FEW_MAX + 1, n, 2):
        eng.update(p, x)
        ora.update(p, x)
        assert eng.query() == ora.query(), p
        for layer in (runs, below):
            if layer.inp.few is None:
                turned.setdefault(layer, p)
    assert len(turned) == 2 and turned[runs] == turned[below], turned
    for p in range(veb.FEW_MAX + 1, n, 2):  # and back: both stay thick
        eng.update(p, one)
        ora.update(p, one)
        assert eng.query() == ora.query(), p
    assert runs.inp.few is None and below.inp.few is None


# -- pair layers: groups of 2..GROUP_MAX, net changes passed down ------------


def test_pair_groups_differential_on_edit_sg_shape(monkeypatch):
    # The edit-sg word: long runs of the J-class {a, b} with identity letters
    # between. Separators (x, ax, bx) are substituted in and reverted later,
    # 4 outstanding, which splits and rejoins runs. The lower pair layers then
    # see a short word whose groups grow to 6 and split, and lose letters
    # down to an orphan, at the first and at the last group. FEW_MAX = 0
    # keeps those short layers thick, so their rules run.
    monkeypatch.setattr(veb, "FEW_MAX", 0)
    s = _edit_sg_semigroup()
    seen = set()
    rewrite = sg._PairRule._rewrite

    def spy(rule, inp, down, old, members):
        seen.add(len(members))
        if len(old) == 2:  # an orphan joins the next group, else the previous
            gkey, nkey = old
            first = members[0] == inp.find_next(1)
            seen.add("orphan first" if nkey > gkey and first else
                     "orphan last" if nkey < gkey else "orphan")
        rewrite(rule, inp, down, old, members)

    monkeypatch.setattr(sg._PairRule, "_rewrite", spy)
    rng = random.Random(zlib.crc32(b"edit-sg pair groups"))
    for n in (16, 64):
        word = [rng.choice([0, 1, 2]) for _ in range(n)]
        word[rng.randrange(n)] = 3
        eng = CheckedSgEngine(s, list(word))
        ora = make_naive_engine(s, list(word))
        outstanding = []
        for _ in range(600):
            if len(outstanding) == 4:
                p, a = outstanding.pop(0)
            else:
                p = rng.randrange(n)
                a = rng.choice([3, 4, 5] if rng.random() < 0.7 else [0, 1, 2])
                outstanding.append((p, word[p]))
            word[p] = a
            eng.update(p, a)
            ora.update(p, a)
            assert eng.query() == ora.query(), (n, p, a)
    assert {2, 3, 4, 5, 6, "orphan first", "orphan last"} <= seen, seen


def _nil3():
    """{a, aa, 0} with a^3 = 0: two non-regular J-classes, so the layer
    stack is pair, pair, base."""
    return FiniteSemigroup([[1, 2, 2], [2, 2, 2], [2, 2, 2]], names=["a", "aa", "0"])


def _record(layer, calls):
    """Log the edits the layer receives, then run them."""
    edit = layer.edit

    def logged(*args):
        calls.append(("edit", *args))
        return edit(*args)

    layer.edit = logged


def test_pair_edit_that_keeps_key_and_label_sends_one_update_down(monkeypatch):
    # a group that starts with 0 keeps the label 0 whatever joins or leaves
    # it; as long as its last letter stays, each edit reaches the layer below
    # as one relabel to the same label, which stops there and goes no further
    # (FEW_MAX = 0: no layer is a leaf)
    monkeypatch.setattr(veb, "FEW_MAX", 0)
    a, z = 0, 2
    eng = make_sg_engine(_nil3(), [a] * 10)
    top, below = eng.layers[0], eng.layers[1]
    assert isinstance(top.rule, sg._PairRule) and isinstance(below.rule, sg._PairRule)
    top.load(np.array([2, 5, 8]), np.array([z, a, a]))  # one group of 3
    calls = []
    _record(below, calls)
    _record(below.down, calls)
    # the group grows to 4 and 5 letters (no split) and shrinks back to 3
    for key, old, new in [(3, None, a), (6, None, a), (5, a, None), (3, a, None)]:
        top.edit(key, old, new)
        top.validate()
        assert calls == [("edit", 8, z, z)], (key, old, new, calls)
        calls.clear()


def test_run_relabel_sends_only_the_net_change_down(monkeypatch):
    # in M0(Z2, [[0,0],[0,0]]) every pair of letters joins, so the word is
    # one run whatever its letters; relabelling a letter only moves the
    # run's coordinates, and the layer below sees one relabel of its entry
    # (FEW_MAX = 0: no layer is a leaf)
    monkeypatch.setattr(veb, "FEW_MAX", 0)
    s = rees_matrix_semigroup(Z2T, [[0, 0], [0, 0]])
    eng = CheckedSgEngine(s, [s.id_of("(0,0,0)")] * 9)
    top, below = eng.layers[0], eng.layers[1]
    assert isinstance(top.rule, sg._RunRule)
    calls = []
    _record(below, calls)
    for pos, name in [(4, "(1,1,1)"), (8, "(1,0,1)")]:  # interior, then last
        eng.update(pos, s.id_of(name))
        assert len(calls) == 1, (pos, calls)
        _, key, old, new = calls[0]
        assert key == 9 and old is not None and new is not None, (pos, calls)
        calls.clear()
    assert eng.query() == make_naive_engine(s, eng.word).query()


TOP_EDIT_STACKS = {
    "nil3": _nil3,  # pair, pair, base
    "M0(Z2,2x2,diag)": lambda: rees_matrix_semigroup(Z2T, [[0, None], [None, 0]]),  # run, pair, base
}


@pytest.mark.parametrize("name", list(TOP_EDIT_STACKS))
def test_top_layer_edit_differential(name, monkeypatch):
    # SgEngine.update only relabels, so the top layer's inserts and deletes
    # are driven here directly through top.edit, over keys 1..200, with the
    # letter count walking to a target size that changes every 150 edits. After each edit the stack
    # validates and the answer is the fold of the top's word. Spies check
    # that the walk reaches the pair rule's edge cases.
    s = TOP_EDIT_STACKS[name]()
    seen = set()
    rewrite, thicken = sg._PairRule._rewrite, sg._Layer._thicken

    def spy_rewrite(rule, inp, down, old, members):
        if len(members) == GROUP_MAX + 1:
            seen.add("split")
        if len(old) == 2:  # an orphan joins the next group, else the previous
            gkey, nkey = old
            seen.add("orphan next" if nkey > gkey else "orphan previous")
        rewrite(rule, inp, down, old, members)

    def spy_thicken(layer, keys):
        seen.add("thicken")
        thicken(layer, keys)

    monkeypatch.setattr(sg._PairRule, "_rewrite", spy_rewrite)
    monkeypatch.setattr(sg._Layer, "_thicken", spy_thicken)
    for few_max in (0, veb.FEW_MAX):
        monkeypatch.setattr(veb, "FEW_MAX", few_max)
        rng = random.Random(zlib.crc32(f"sg top edits {name} {few_max}".encode()))
        eng = make_sg_engine(s, [0] * 200)
        top = eng.top
        keys = sorted(rng.sample(range(1, 201), 5))
        top.load(np.array(keys), np.array([rng.randrange(s.size) for _ in keys]))
        word = dict(top.inp.items())
        pairs = [lay for lay in eng.layers if isinstance(lay.rule, sg._PairRule)]
        for step in range(1200):
            target = (3, 1, 12, 2, 80, 1, 80, 2)[step // 150]
            if word and rng.random() < 0.3:
                key = rng.choice(sorted(word))
                old, new = word[key], rng.randrange(s.size)
            elif not word or (len(word) < target) == (rng.random() < 0.9):
                key = rng.choice([k for k in range(1, 201) if k not in word])
                old, new = None, rng.randrange(s.size)
            else:
                key = rng.choice(sorted(word))
                old, new = word[key], None
            before = [(len(lay.inp), lay.inp.few is None) for lay in pairs]
            top.edit(key, old, new)
            if new is None:
                del word[key]
            else:
                word[key] = new
            for (size, thick), lay in zip(before, pairs):
                if thick and {size, len(lay.inp)} == {1, 2}:
                    seen.add(f"count {size} -> {len(lay.inp)}")
            top.validate()
            items = top.inp.items()
            assert items == sorted(word.items()), (name, few_max, step)
            assert eng.query() == s.eval_word(lab for _, lab in items), (name, few_max, step)
    assert {"split", "orphan next", "orphan previous", "thicken",
            "count 1 -> 2", "count 2 -> 1"} <= seen, seen


def test_validate_raises_internal_error_on_a_group_of_1_or_6(monkeypatch):
    monkeypatch.setattr(veb, "FEW_MAX", 0)  # thick layers: groups are checked
    a, z = 0, 2
    s = _nil3()
    # six letters load as groups keyed 2, 4 and 6
    eng = CheckedSgEngine(s, [a] * 6)
    below = eng.layers[1]
    below.inp.insert(1, a)  # key 1 cuts a group of 1 off the group keyed 2
    with pytest.raises(InternalError, match="group of 1 letters"):
        eng.top.validate()
    below.inp.delete(1)
    eng.top.validate()
    for k in (2, 4):  # the group keyed 6 takes all six letters
        below.inp.delete(k)
    below.inp.update(6, z)
    with pytest.raises(InternalError, match="group of 6 letters"):
        eng.top.validate()


# -- bulk build: edge sizes and the array collapse ---------------------------

SG_SEMIGROUPS = {name: s for name, s in gallery().items() if check_variety(s, "SG")}


@pytest.mark.parametrize("name", list(SG_SEMIGROUPS))
def test_build_edge_sizes_with_debug_checks(gal, name, monkeypatch):
    # odd counts end in a triple, and short words leave lower layers empty
    s = gal[name]
    rng = random.Random(zlib.crc32(f"sg build sizes {name}".encode()))
    for n in thick_and_leaves(monkeypatch, (0, 1, 2, 3, 4, 5, 64, 1000)):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = CheckedSgEngine(s, list(word))
        ora = make_naive_engine(s, list(word))
        assert eng.query() == ora.query(), (name, n)
        for _ in range(200 if n else 0):
            p, a = rng.randrange(n), rng.randrange(s.size)
            eng.update(p, a)
            ora.update(p, a)
            assert eng.query() == ora.query(), (name, n, p, a)


def _fold_collapse(rule, keys, labels):
    """Letter-by-letter collapse: (key, (i, g, j)) for each run, keyed by
    its last letter and carrying its exact mass; (key, letter) for the
    other letters."""
    rv = rule.rv
    out = []
    run = None  # (i, g, j, key) of the open run
    for key, a in zip(keys, labels):
        if a not in rule.cls:
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
    run_rules = [lay.rule for lay in eng.layers if isinstance(lay.rule, sg._RunRule)]
    rng = random.Random(zlib.crc32(f"sg collapse {name}".encode()))
    for rule in run_rules:
        cls = sorted(rule.cls)
        for n in (0, 1, 2, 3, 50, 500):
            keys = sorted(rng.sample(range(1, 4 * n + 2), n))
            labels = [rng.choice(cls) if rng.random() < 0.8
                      else rng.randrange(rule.s0.size) for _ in range(n)]
            got_keys, got_labels = rule._collapse(np.array(keys, dtype=np.int64),
                                                  np.array(labels, dtype=np.uint8))
            got = [(k, rule.rv.coord[a]) if a in rule.cls else (k, a)
                   for k, a in zip(got_keys.tolist(), got_labels.tolist())]
            assert got == _fold_collapse(rule, keys, labels), (name, n)
