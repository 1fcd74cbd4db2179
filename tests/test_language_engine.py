import copy
import random
import zlib

import numpy as np
import pytest

from dynreg.engines import (
    KaryLanguageEngine,
    LanguageEngine,
    WindowLanguageEngine,
    WindowStatsEngine,
    make_kary_engine,
    make_language_engine,
    make_naive_engine,
    make_windowstats_engine,
    synthesize_window_plan,
)
from dynreg.algebra.core import FiniteSemigroup, adjoin_identity, table_array
from dynreg.algebra.varieties import check_variety
from dynreg.engines import language, windowstats, zg
from dynreg.engines.windowstats import WindowStatsPlan, _exponent, _nslots, _slots_of_append, _verify_plan, _word_counts
from dynreg.engines.kary import branching
from dynreg.engines.language import _bulk_values, _each_value, _mapped
from dynreg.engines.zg import make_zg_engine
from dynreg.errors import EngineError, InternalError, NotApplicable, NoWindowPlan, NoZgCertificate, PositionOutOfRange, RangeError
from dynreg.gallery import ab_star_semigroup, cyclic, gallery, s3
from dynreg.syntactic import Q_LZG, Q_SG_ONLY, analyze_dfa, analyze_regex, classify_language, stable_data
from dynreg.syntactic.dfa import Dfa
from dynreg.syntactic.monoid import Morphism
from helpers import FIRST_LETTER_DFA, S3_DFA, FoldOracle, decoded_recovery, kary_tree_at, reference_window_search, semigroup_tables


def test_window_plan_for_ab_star_semigroup():
    s = ab_star_semigroup()
    plan = synthesize_window_plan(s)
    assert plan is not None
    assert plan.first is False and (plan.threshold, plan.period) == (1, 1)


def test_window_engine_differential():
    s = ab_star_semigroup()
    plan = synthesize_window_plan(s)
    rng = random.Random(2)
    for n in (1, 2, 5, 16, 33):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = WindowStatsEngine(s, list(word), plan)
        ora = make_naive_engine(s, list(word))
        for _ in range(500):
            p, a = rng.randrange(n), rng.randrange(s.size)
            eng.update(p, a)
            ora.update(p, a)
            assert eng.query() == ora.query()


def _counts_by_position(s, word):
    counts = [0] * _nslots(s)
    for i, a in enumerate(word):
        for slot in _slots_of_append(s, word[i - 1] if i else None, a):
            counts[slot] += 1
    return counts


def test_window_bulk_counts_match_the_per_position_rule(gal):
    for name, s in gal.items():
        rng = random.Random(zlib.crc32(f"window counts pairs {name}".encode()))
        plan = WindowStatsPlan(False, 1, 1, _nslots(s))
        for n in (0, 1, 2, 3, 17, 300):
            word = [rng.randrange(s.size) for _ in range(n)]
            eng = WindowStatsEngine(s, list(word), plan)
            assert eng.counts == _counts_by_position(s, word), (name, n)
            assert all(type(c) is int for c in eng.counts)
            for _ in range(20 if n else 0):
                eng.update(rng.randrange(n), rng.randrange(s.size))
            assert eng.counts == _counts_by_position(s, eng.word), (name, n)


def _assert_kept_key(eng):
    """The engine's counts are those recomputed from its word, and its plan
    packs each count's cap, threshold + (count - threshold) % period from
    the threshold on, as the digit at its slot's place."""
    plan = eng.plan
    counts = _word_counts(eng.semigroup, eng.word, plan.nslots)
    assert eng.counts == counts
    t, p = plan.threshold, plan.period
    assert plan.pack(counts) == sum((c if c < t else t + (c - t) % p) * plan.radix**i for i, c in enumerate(counts))


# An even number of a's and ends with b, (b+ab*a)*b: Q_LZG, no window plan
EVEN_A_DFA = Dfa("ab", [[2, 1], [2, 1], [0, 3], [0, 3]], 0, {1})


@pytest.mark.parametrize("which", ["ab_star", "first_letter"])
def test_window_engine_keeps_its_capped_key(which):
    if which == "ab_star":
        s = ab_star_semigroup()
    else:
        s = analyze_dfa(FIRST_LETTER_DFA)[1].stable
    plan = synthesize_window_plan(s)
    assert plan.first is (which == "first_letter")
    rng = random.Random(zlib.crc32(f"kept key {which}".encode()))
    for n in (1, 2, 3, 17):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = WindowStatsEngine(s, list(word), plan)
        ora = FoldOracle(s, list(word))
        _assert_kept_key(eng)
        for k in range(200):
            # the ends, then a same-letter edit, then anywhere, in turn
            p = (0, n - 1, None, None)[k % 4]
            if p is None:
                p = rng.randrange(n)
            a = eng.word[p] if k % 4 == 2 else rng.randrange(s.size)
            eng.update(p, a)
            ora.update(p, a)
            _assert_kept_key(eng)
            assert eng.query() == ora.query(), (which, n, p, a)
            assert eng.query() == ora.query()  # the kept answer


@pytest.mark.parametrize("threshold, period", [(1, 1), (3, 2), (1, 4)])
def test_window_code_follows_the_counts_under_each_cap(gal, threshold, period):
    # counts that cross the threshold and wrap round the period pack to
    # their capped digits, on hand-made plans of each shape
    for name, s in gal.items():
        rng = random.Random(zlib.crc32(f"window code {name} {threshold} {period}".encode()))
        plan = WindowStatsPlan(False, threshold, period, _nslots(s))
        for n in (1, 2, 3, 9):
            eng = WindowStatsEngine(s, [rng.randrange(s.size) for _ in range(n)], plan)
            for _ in range(40):
                eng.update(rng.randrange(n), rng.randrange(s.size))
                _assert_kept_key(eng)


def test_semigroup_tables_yields_one_table_per_isomorphism_class():
    # OEIS A027851: the semigroups of orders 1-4 up to isomorphism, which
    # the order <= 3 sweeps below rely on reaching
    assert [sum(1 for _ in semigroup_tables(order)) for order in (1, 2, 3, 4)] == [1, 5, 24, 188]


def _order_le_3_window_semigroups():
    """Semigroups of order <= 3, up to isomorphism, that reach the window
    rung of the Q_LZG ladder: in LOCAL(ZG), refused by the zg factory."""
    out = []
    for order in (1, 2, 3):
        for table in semigroup_tables(order):
            s = FiniteSemigroup(table)
            if not check_variety(s, ("LOCAL", "ZG")):
                continue
            try:
                make_zg_engine(s, [])
            except NotApplicable:
                out.append(s)
    return out


def test_every_order_le_3_window_semigroup_gets_an_exact_plan():
    semigroups = _order_le_3_window_semigroups()
    assert semigroups
    for s in semigroups:
        plan = synthesize_window_plan(s)
        assert plan is not None, s.table
        rng = random.Random(zlib.crc32(f"order <= 3 window {s.table}".encode()))
        for n in (1, 2, 17):
            word = [rng.randrange(s.size) for _ in range(n)]
            eng = make_windowstats_engine(s, list(word))
            ora = FoldOracle(s, list(word))
            assert eng.query() == ora.query(), (s.table, word)
            for k in range(60):
                # every third edit rewrites the first letter
                p, a = (0 if k % 3 == 0 else rng.randrange(n)), rng.randrange(s.size)
                eng.update(p, a)
                ora.update(p, a)
                if n <= 2:
                    _assert_kept_key(eng)
                assert eng.query() == ora.query(), (s.table, n, p, a)


def _window_keys(s):
    """The four (first, threshold, period) keys synthesize_window_plan tries."""
    return [(first, threshold, period) for first in (False, True)
            for threshold, period in ((1, 1), (s.size + 1, _exponent(s)))]


@pytest.mark.parametrize("semigroups, outcomes", [
    pytest.param(_order_le_3_window_semigroups, {"plan", "conflict"}, id="order <= 3"),
    # every a*b* key finds a plan once the states that show the zero are left out
    pytest.param(lambda: [ab_star_semigroup()], {"plan"}, id="ab_star"),
    pytest.param(lambda: [analyze_dfa(FIRST_LETTER_DFA)[1].stable], {"plan", "conflict", "cap"}, id="first letter"),
    pytest.param(lambda: [analyze_dfa(EVEN_A_DFA)[1].stable], {"conflict", "cap"}, id="even a"),
    # Z2 is in ZG and never reaches the window rung; it is here for its
    # counts plan, capped modulo 2, which is found below the test's cap
    pytest.param(lambda: [cyclic(2)], {"plan", "conflict"}, id="Z2"),
])
def test_packed_window_search_matches_the_tuple_reference(semigroups, outcomes, monkeypatch):
    # Under a small cap, so that the searches that would run to the full
    # STATE_CAP stop early; a search that ends below the cap gets the same
    # verdict under any larger one
    cap = 5_000
    monkeypatch.setattr(windowstats, "STATE_CAP", cap)
    kinds = set()
    for s in semigroups():
        for key in _window_keys(s):
            plan = _verify_plan(s, *key)
            recovery, states = reference_window_search(s, *key, state_cap=cap)
            assert (plan is None) == (recovery is None), (s.table, key)
            if plan is not None:
                assert decoded_recovery(plan) == recovery, (s.table, key)
            kinds.add("plan" if plan else "cap" if states > cap else "conflict")
    assert kinds == outcomes


def test_window_search_cap_is_exact_at_the_reachable_state_count(monkeypatch):
    # FIRST_LETTER_DFA's first-letter presence plan: the search gives up
    # only when more than STATE_CAP states are seen at the start of a layer
    s = analyze_dfa(FIRST_LETTER_DFA)[1].stable
    key = (True, 1, 1)
    recovery, states = reference_window_search(s, *key, state_cap=float("inf"))
    assert recovery is not None
    monkeypatch.setattr(windowstats, "STATE_CAP", states - 1)
    assert _verify_plan(s, *key) is None
    monkeypatch.setattr(windowstats, "STATE_CAP", states)
    assert decoded_recovery(_verify_plan(s, *key)) == recovery


def test_window_factory_without_plan_raises_engine_error():
    # S3 has no verified statistics plan; like every engine factory, the
    # window factory reports a failed precondition as an EngineError
    with pytest.raises(NoWindowPlan):
        make_windowstats_engine(s3(), [0, 1])
    assert issubclass(NoWindowPlan, EngineError)


def _member_under_edits(m, sd, rep, alphabet, seed, kind, sizes=(0, 1, 2, 3, 64)):
    """Answers against m.member under random edits. Sizes below s or not a
    multiple of s leave tail letters, and where any does, some tail edit
    must flip the answer, which the facade's kept bit must not hide."""
    rng = random.Random(seed)
    tail_flips = tails = 0
    for n in sizes:
        word = [rng.choice(alphabet) for _ in range(n)]
        eng = make_language_engine(m, sd, rep, list(word))
        assert eng.kind == kind
        tails += n % eng.s
        got = eng.query()
        assert got == m.member(word)
        for _ in range(300 if n else 0):
            p, c = rng.randrange(n), rng.choice(alphabet)
            eng.update(p, c)
            word[p] = c
            before, got = got, eng.query()
            assert got == m.member(word), (n, p, c)
            tail_flips += p >= n - n % eng.s and got != before
    assert tail_flips or not tails


def test_first_letter_window_language_matches_membership():
    # A Q_LZG language whose stable semigroup is not in ZG and whose window
    # plan needs the first letter in its key
    m, sd, rep = analyze_dfa(FIRST_LETTER_DFA)
    assert rep.cls == Q_LZG
    assert synthesize_window_plan(sd.stable).first is True
    _member_under_edits(m, sd, rep, "ab", 5, "language[window]")


def test_downgraded_lzg_language_matches_membership():
    # A Q_LZG language whose stable semigroup is not in ZG and has no
    # window plan, so route falls back to the k-ary tree over the letters,
    # tagged kary-downgraded
    m, sd, rep = analyze_dfa(EVEN_A_DFA)
    assert rep.cls == Q_LZG
    assert synthesize_window_plan(sd.stable) is None
    assert type(make_language_engine(m, sd, rep, [])) is KaryLanguageEngine
    _member_under_edits(m, sd, rep, "ab", 5, "language[kary-downgraded]")


def test_paper_trace_ab_star():
    m, sd, rep = analyze_regex("a*b*", "ab")
    eng = make_language_engine(m, sd, rep, list("aaaa"))
    assert eng.kind == "language[window]"
    assert eng.query() is True
    eng.update(2, "b")
    assert eng.query() is False  # aaba
    eng.update(3, "b")
    assert eng.query() is True  # aabb


def test_trace_even_a_before_b():
    m, sd, rep = analyze_regex("(aa)*ba*", "ab")
    eng = make_language_engine(m, sd, rep, list("aab"))
    assert eng.kind == "language[zg]"
    assert eng.query() is True
    eng.update(2, "a")
    assert eng.query() is False  # aaa


def test_empty_word_membership():
    for rx, want in [("a*b*", True), ("(aa)*ba*", False)]:
        m, sd, rep = analyze_regex(rx, "ab")
        eng = make_language_engine(m, sd, rep, [])
        assert eng.query() is want


def test_engine_kinds_by_class():
    # Q_SG_ONLY gets the unchunked k-ary tree, measured faster than the vEB
    # engine at every n from 2^10 to 2^20
    cases = {
        ("a*b*", "ab"): (Q_LZG, "language[window]"),
        ("a(a+b)*b", "ab"): (Q_LZG, "language[window]"),  # a 2x2 rectangular band
        ("(aa)*ba*", "ab"): (Q_LZG, "language[zg]"),
        ("(a+b+c)*bc*x(a+b+c)*", "abcx"): (Q_SG_ONLY, "language[kary]"),
        ("c*x(a+c)*", "acx"): (Q_SG_ONLY, "language[kary]"),
    }
    for (rx, alpha), (cls, want) in cases.items():
        m, sd, rep = analyze_regex(rx, alpha)
        assert rep.cls == cls, rx
        eng = make_language_engine(m, sd, rep, list(alpha * 3))
        assert eng.kind == want, rx


def test_s3_language_routes_to_kary():
    import itertools

    from dynreg.syntactic import classify_language, minimize_dfa, stable_data, syntactic_monoid
    from dynreg.syntactic.dfa import Dfa

    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    a, b = (1, 0, 2), (1, 2, 0)
    delta = [
        [idx[tuple(g[p[k]] for k in range(3))] for g in (a, b)] for p in perms
    ]
    d = minimize_dfa(Dfa("ab", delta, idx[(0, 1, 2)], {idx[(0, 1, 2)]}))
    m = syntactic_monoid(d)
    sd = stable_data(m)
    rep = classify_language(m, sd)
    rng = random.Random(3)
    word = [rng.choice("ab") for _ in range(50)]
    eng = make_language_engine(m, sd, rep, word)
    assert eng.kind == "language[kary]"
    naive = list(word)
    for _ in range(400):
        p, c = rng.randrange(50), rng.choice("ab")
        eng.update(p, c)
        naive[p] = c
        assert eng.query() == m.member(naive)


@pytest.mark.parametrize("rx,alpha", [
    ("a*b*", "ab"),
    ("(aa)*ba*", "ab"),
    ("(a+b+c)*bc*x(a+b+c)*", "abcx"),
    ("c*x(a+c)*", "acx"),
])
def test_language_differential_random(rx, alpha):
    m, sd, rep = analyze_regex(rx, alpha)
    kind = make_language_engine(m, sd, rep, []).kind
    _member_under_edits(m, sd, rep, alpha, len(rx), kind, sizes=(0, 1, 2, 3, 5, 8, 21))


@pytest.mark.parametrize("rx,alpha", [
    ("a*b*", "ab"),
    ("(ab)*", "ab"),
])
def test_bulk_block_images_match_block_image(rx, alpha):
    # the vectorized first images equal the per-block rule: the code table
    # read at each block's code, and the zg engine's word or the fused
    # window engine's counts and key; at 2^10 a block has 3 times the
    # stability index's letters
    m, sd, rep = analyze_regex(rx, alpha)
    rng = random.Random(zlib.crc32(f"block images {rx}".encode()))
    for n in (0, 1, sd.index, sd.index + 1, 50, 2**10):
        word = [rng.choice(alpha) for _ in range(n)]
        eng = make_language_engine(m, sd, rep, word)
        s = eng.s
        assert s == (3 * sd.index if n == 2**10 else sd.index), (rx, n)
        images = tuple(sd.block_image(word[b * s : (b + 1) * s]) for b in range(n // s))
        assert _decoded_images(eng) == images, (rx, n)
        if type(eng) is WindowLanguageEngine:
            _assert_fused_key(eng, images)
        else:
            assert eng.inner.snapshot() == images, (rx, n)


def _decoded_images(eng):
    """The stable images of a chunked engine's blocks, read from its codes."""
    return tuple(eng._img[code] for code in eng.codes)


def _stable_image(m, sd):
    """monoid id -> stable id, -1 outside the stable semigroup."""
    image = [-1] * m.target.size
    for x, v in enumerate(sd.inclusion):
        image[v] = x
    return image


def _table_twins(m, sd, rep, word):
    """Two engines over word with the same block length: one whose code table
    is the list over every code, one whose table is filled on first read.
    Each engine builds the table its size gives; where that is the other
    kind, a table of the asked kind over the same codes is swapped in."""
    eager, lazy = (make_language_engine(m, sd, rep, list(word)) for _ in range(2))
    image = _stable_image(m, sd)
    if type(eager._img) is not list:
        t = table_array(m.target)
        ids = np.array(eager._ids, dtype=t.dtype)
        eager._img = language._code_values(t, image, ids, eager.s).tolist()
    if type(lazy._img) is list:
        lazy._img = language._CodeTable(m, image, lazy._ids, lazy._places, lazy._base)
    assert type(eager._img) is list and type(lazy._img) is not list
    return eager, lazy


def _window_state(eng):
    """(slot counts, key, end blocks' part) of a window engine in the
    plan's layout: a WindowStatsEngine's counts and their plan.pack, or
    decoded from the fused engine's one int: each count's field, the key of
    a plan of presence bits by the guard bits of the SWAR test, that of a
    counted plan by the fields the query packs, and _ends."""
    plan = eng.plan
    if type(eng) is WindowStatsEngine:
        word = eng.word
        return eng.counts, plan.pack(eng.counts), word[-1] * plan.last_place + word[0] * plan.first_place if word else 0
    w, x, top = eng._w, eng._x, plan.nslots * eng._w
    assert x >> top == 0, "a count carried past the top field"
    counts = [x >> (i * w) & ((1 << w) - 1) for i in range(plan.nslots)]
    ends = (eng._ends >> top) * plan.last_place
    if eng._h:
        key = (x + eng._m) & eng._h
        code = sum((key >> (i * w + w - 1) & 1) << i for i in range(plan.nslots))
    else:
        code = eng._packed() - ends
    return counts, code, ends


def _assert_fused_key(eng, images):
    """The fused window engine's counts, key and end blocks' part are those
    of its block images."""
    plan = eng.plan
    counts = _word_counts(eng.semigroup, list(images), plan.nslots)
    ends = images[-1] * plan.last_place + images[0] * plan.first_place if images else 0
    assert _window_state(eng) == (counts, plan.pack(counts), ends)


def test_unknown_initial_letter_raises_range_error():
    # one check serves every facade branch: chunked (window) and unchunked
    # kary (a Q_SG_ONLY language and S3); an unhashable letter is no letter
    for m, sd, rep in (analyze_regex("a*b*", "ab"),
                       analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx"),
                       analyze_dfa(S3_DFA)):
        with pytest.raises(RangeError, match="'z' not in the alphabet"):
            make_language_engine(m, sd, rep, list("abz"))
        with pytest.raises(RangeError, match=r"\['b'\] not in the alphabet"):
            make_language_engine(m, sd, rep, ["a", ["b"]])
    # a refused edit on either chunked engine, fused window or generic zg,
    # changes nothing: a letter outside the alphabet or a position past
    # either end
    for rx, cls in (("a*b*", WindowLanguageEngine), ("(aa)*ba*", LanguageEngine)):
        m, sd, rep = analyze_regex(rx, "ab")
        eng = make_language_engine(m, sd, rep, list("aabbbb"))
        assert type(eng) is cls and eng.blocks
        want = eng.query()
        for p, c, error in _refused_edits(eng, "ab"):
            snap, ops = eng.snapshot(), eng.op_count
            with pytest.raises(error, match="not in the alphabet" if error is RangeError else "outside"):
                eng.update(p, c)
            assert eng.snapshot() == snap and eng.op_count == ops, (rx, p, c)
            assert eng.query() == want, (rx, p, c)


def _ids_or_error(route, values, bound, word):
    """What a letter-map route gives on word: (dtype, values) or its error."""
    try:
        ids = route(values, bound, word)
    except RangeError as exc:
        return "RangeError", str(exc)
    return ids.dtype, ids.tolist()


def test_bulk_letter_ids_match_the_per_letter_route():
    # the bulk route (one bytes.translate) gives the ids and dtype of the
    # per-letter route, and falls back to it for its errors; it applies only
    # to one-character latin-1 str letters and fewer than 255 values. Both
    # maps take it: monoid ids (eta) and alphabet indices
    ascii_m = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")[0]
    latin_m = analyze_regex("a*é*", "aé")[0]
    greek_m = analyze_regex("a*α*", "aα")[0]
    multi_m = analyze_dfa(Dfa(["ab", "c"], [[1, 0], [0, 1]], 0, {0}))[0]
    wide_m = Morphism(cyclic(300), {"a": 1, "b": 299}, {0}, "ab")
    rng = random.Random(zlib.crc32(b"bulk letter ids"))

    def word(alphabet, n):
        return [rng.choice(alphabet) for _ in range(n)]

    cases = [(ascii_m, word("abcx", n), True) for n in (0, 1, 2, 7, 1000)]
    cases += [(latin_m, word("aé", n), True) for n in (1, 300)]
    cases += [(greek_m, word("aα", 300), False), (greek_m, ["α"], False), (greek_m, list("aa"), True)]
    cases += [(multi_m, ["ab", "c", "c"], False), (multi_m, ["c", "c"], True)]
    cases += [(wide_m, word("ab", 50), False)]
    cases += [(m, w, False) for m in (ascii_m, multi_m) for w in (["", "ab"], ["a", "", "bc"])]
    for bad in ("z", None, 1.5, [0]):
        for pos in (0, 4, 9):
            w = word("abcx", 10)
            w[pos] = bad
            cases.append((ascii_m, w, False))
    cases += [(ascii_m, np.array(word("abcx", 40)), True), (ascii_m, np.array([], dtype=str), True)]
    for m, w, bulk in cases:
        index = {a: i for i, a in enumerate(m.eta)}
        for values, bound in ((m.eta, m.target.size), (index, len(index))):
            want = _ids_or_error(_each_value, values, bound, w)
            assert _ids_or_error(_mapped, values, bound, w) == want, (m, w)
            # wide_m has 300 elements but two letters, so its indices take the bulk route
            bulk_here = bulk or (m is wide_m and values is index)
            assert (_bulk_values(values, bound, w) is not None) is bulk_here, (m, w)


KARY_LANGUAGES = {
    "S3": lambda: analyze_dfa(S3_DFA),
    "edit-sg": lambda: analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx"),
}


@pytest.mark.parametrize("name", KARY_LANGUAGES)
def test_kary_language_engine_matches_a_bare_kary_tree(name, monkeypatch):
    # the tree's leaves are the monoid values of the blocks of s letters, then
    # one per tail letter: a bare kary tree over those values, at the same
    # k, holds the same levels. An update charges 2 (its own step and its
    # leaf's value read) plus what the bare tree charges for its leaf, and
    # nothing more when the leaf keeps its value, whatever n; a query charges
    # 2. With s forced to 5, n = 4 is a word of tail letters alone and the
    # code table is filled on first read. A bad edit changes nothing
    m, sd, rep = KARY_LANGUAGES[name]()
    assert rep.cls != Q_LZG
    for forced in (None, 5):
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr(language, "block_length", lambda base, n: forced)
            _kary_language_against_bare_trees(m, sd, rep, name, forced)


def _kary_language_against_bare_trees(m, sd, rep, name, forced):
    """The checks above at block length forced, or the derived one for None."""
    sizes = (0, 1, forced - 1, forced, forced + 1, 2 * forced + 3) if forced else (0, 1, 2**12)
    rng = random.Random(zlib.crc32(f"kary language {name} {forced}".encode()))
    for n in sizes:
        word = [rng.choice(m.alphabet) for _ in range(n)]
        eng = make_language_engine(m, sd, rep, list(word))
        assert type(eng) is KaryLanguageEngine and eng.kind == "language[kary]"
        s = eng.s
        blocks = n // s
        assert s == (forced or language.block_length(len(m.alphabet), n)) and eng.blocks == blocks
        assert eng.k == branching(m.target.size, max(n, 1)), n

        def leaf(p):
            return p // s if p < blocks * s else p - blocks * s + blocks

        def leaf_value(j):
            return m.image(word[j * s : (j + 1) * s] if j < blocks else [word[blocks * s + j - blocks]])

        leaves = blocks + n - blocks * s
        bare = kary_tree_at(m.target, [leaf_value(j) for j in range(leaves)], eng.k)
        assert eng.levels == bare.levels and eng.snapshot() == tuple(word), n
        tail_edits = 0
        for i in range(300 if n else 0):
            # every third edit lands in the tail, when there is one
            p = rng.randrange(blocks * s, n) if n > blocks * s and i % 3 == 0 else rng.randrange(n)
            c = rng.choice(m.alphabet)
            j = leaf(p)
            old = leaf_value(j)
            word[p] = c
            ops, bare_ops = eng.op_count, bare.op_count
            eng.update(p, c)
            if leaf_value(j) != old:
                bare.update(j, leaf_value(j))
            assert eng.op_count - ops == 2 + bare.op_count - bare_ops, (n, p, c)
            assert eng.op_count - ops <= 2 + len(eng.levels), (n, p, c)
            assert eng.levels == bare.levels, (n, p, c)
            ops = eng.op_count
            assert eng.query() == m.member(word), (n, p, c)
            assert eng.op_count - ops == 2, (n, p, c)
            assert eng.snapshot() == tuple(word), (n, p, c)
            tail_edits += p >= blocks * s
        assert tail_edits or n == blocks * s, n
        want = m.member(word)
        for p, c, error in _refused_edits(eng, m.alphabet):
            ops, levels = eng.op_count, [list(codes) for codes in eng.levels]
            with pytest.raises(error):
                eng.update(p, c)
            assert eng.op_count == ops and eng.snapshot() == tuple(word), (n, p, c)
            assert eng.levels == levels and eng.query() == want, (n, p, c)


def test_kary_language_engine_over_a_one_letter_alphabet():
    # one letter: every block has the one code 0, so the block length is
    # bounded by n's bit length alone, not by the code table; every edit
    # keeps its leaf's value, and the answer is the membership of a^n
    m = analyze_regex("(aaa)*", "a")[0]
    assert list(m.eta) == ["a"]
    for n in (0, 1, 2, 7, 8, 9, 64, 2**12):
        eng = KaryLanguageEngine(m, ["a"] * n)
        assert eng.s < max(n.bit_length(), 2) and eng.snapshot() == ("a",) * n, n
        want = n % 3 == 0
        assert eng.query() is want, n
        for p in range(0, n, max(n // 8, 1)):
            ops = eng.op_count
            eng.update(p, "a")
            assert eng.op_count - ops == 2 and eng.query() is want, (n, p)
        for p, c, error in _refused_edits(eng, "a"):
            with pytest.raises(error):
                eng.update(p, c)
        assert eng.snapshot() == ("a",) * n and eng.query() is want, n


def _node_values(levels, value, b, k):
    """A k-ary tree's node values bottom up, the leaves first: the digits of
    the bottom level's codes, then value[code] for each level's codes."""
    leaves = [code // b**i % b for code in levels[0] for i in range(k)]
    return [leaves] + [[value[code] for code in codes] for codes in levels]


# (language, n, forced block length): S3 is a group, so a changed leaf
# changes every node above it; edit-sg's monoid has a zero, where a climb
# stops; blocks of 5 letters make a word of 4 letters all tail
CLIMB_WORDS = {"S3": ("S3", 2**12, None), "edit-sg": ("edit-sg", 2**12, None),
               "tail only": ("edit-sg", 4, 5)}


@pytest.mark.parametrize("tree", ["kary", "language[kary]"])
@pytest.mark.parametrize("case", CLIMB_WORDS)
def test_climb_charges_by_the_reference_rule(case, tree, monkeypatch):
    # each edit's charge against the rule read off snapshots of the levels
    # taken before and after it: the climb charges 1 plus the number of
    # bottom-up levels, the leaves first, whose node value changed, at most
    # the height; the language kind adds 2, and charges that 2 alone when
    # its leaf keeps its value
    name, n, forced = CLIMB_WORDS[case]
    m, sd, rep = KARY_LANGUAGES[name]()
    if forced:
        monkeypatch.setattr(language, "block_length", lambda base, n: forced)
    rng = random.Random(zlib.crc32(f"climb charges {case} {tree}".encode()))
    word = rng.choices(m.alphabet, k=n)
    if tree == "kary":
        eng = make_kary_engine(m.target, [m.eta[c] for c in word])
    else:
        eng = make_language_engine(m, sd, rep, word)
        assert type(eng) is KaryLanguageEngine and (eng.blocks == 0) == bool(forced)
    b, k, height = adjoin_identity(m.target).size, eng.k, len(eng.levels)
    nodes = _node_values(eng.levels, eng.value, b, k)
    climbs = []
    for _ in range(300):
        p, c = rng.randrange(n), rng.choice(m.alphabet)
        ops = eng.op_count
        eng.update(p, m.eta[c] if tree == "kary" else c)
        before, nodes = nodes, _node_values(eng.levels, eng.value, b, k)
        changed = [x != y for x, y in zip(before, nodes)]
        climb = min(1 + sum(changed), height)
        want = climb if tree == "kary" else 2 + climb if changed[0] else 2
        assert eng.op_count - ops == want, (p, c, changed)
        if changed[0]:
            climbs.append(climb)
    # every case climbs: S3's to the top each time, edit-sg's at 2^12 also
    # stopping below it
    assert climbs
    if case != "tail only":
        assert (set(climbs) == {height}) == (case == "S3"), sorted(set(climbs))


def test_language_constant_cost_for_q_lzg():
    worst_by_lang = {}
    for rx in ("a*b*", "(aa)*ba*"):
        m, sd, rep = analyze_regex(rx, "ab")
        worst = []
        for n in (2**10, 2**14, 2**18):
            rng = random.Random(14)
            word = [rng.choice("ab") for _ in range(n)]
            eng = make_language_engine(m, sd, rep, word)
            mx_u = mx_q = 0
            for _ in range(1200):
                before = eng.op_count
                eng.update(rng.randrange(n), rng.choice("ab"))
                mx_u = max(mx_u, eng.op_count - before)
                before = eng.op_count
                eng.query()
                mx_q = max(mx_q, eng.op_count - before)
            worst.append((mx_u, mx_q))
        assert worst[0] == worst[1] == worst[2], (rx, worst)
        worst_by_lang[rx] = worst[0]


# (update, query) charge of each edit case: an edit that changes its block's
# image, one that keeps it, and one that changes a tail letter, each then
# queried. A query after a kept image reads the kept bit; after a change it
# evaluates: the window kind's nslots + 1 (8 slots for a*b* and the counted
# plans, 10 for the first letter), the zg kind's inner query. S3's k-ary
# tree has no kept bit, and in a group a changed leaf changes every level
# above it, so its climb, marked None, is the tree's height, the one charge
# that grows with n
PINNED_CHARGES = {
    "a*b*": {"change": (6, 11), "keep": (2, 2), "tail": (2, 11)},
    "first letter": {"change": (6, 13), "keep": (2, 2), "tail": (2, 13)},
    "counted": {"change": (6, 11), "keep": (2, 2), "tail": (2, 11)},
    "counted first letter": {"change": (6, 11), "keep": (2, 2), "tail": (2, 11)},
    "(ab)*": {"change": (4, 6), "keep": (2, 2), "tail": (2, 6)},
    "S3": {"change": (None, 2), "keep": (2, 2), "tail": (None, 2)},
}


@pytest.mark.parametrize("name", PINNED_CHARGES)
def test_each_edit_case_charges_one_constant_at_every_size(name):
    # seeded edits chosen to hit each case, ten of each, at n = 2^10, 2^14
    # and 2^18, where a block has 3 to 15 letters: every case charges its
    # pinned constant at every size, since a code read is one step whatever
    # the block length. a*b*, (ab)* and the counted languages start from a
    # member word, where a uniform word's blocks would all have the zero image
    m, sd, rep = {**CACHED_LANGUAGES, **WINDOW_LANGUAGES, "S3": lambda: analyze_dfa(S3_DFA)}[name]()
    kary = name == "S3"
    image = m.image if kary else sd.block_image
    for n in (2**10, 2**14, 2**18):
        rng = random.Random(zlib.crc32(f"pinned charges {name} {n}".encode()))
        if name == "a*b*":
            word = ["a"] * (n // 2) + ["b"] * (n - n // 2)
        elif name == "(ab)*":
            word = ["a", "b"] * (n // 2)
        elif name.startswith("counted"):
            word = ["d"] * (n - 1) + ["b"]
        else:
            word = rng.choices(m.alphabet, k=n)
        eng = make_language_engine(m, sd, rep, list(word))
        s, blocks = eng.s, eng.blocks
        assert s > (sd.index if not kary else 1) and n > blocks * s, (name, n, s)
        want = dict(PINNED_CHARGES[name])
        if kary:
            climb = 2 + len(eng.levels)
            want = {case: (climb if u is None else u, q) for case, (u, q) in want.items()}
        ops = eng.op_count
        assert eng.query() == m.member(word) and eng.op_count - ops == want["change"][1], (name, n)

        def case_of(p, c):
            if p >= blocks * s:
                return "tail" if word[p] != c else None
            lo = p - p % s
            block = word[lo : lo + s]
            return "keep" if image(block) == image(block[: p - lo] + [c] + block[p - lo + 1 :]) else "change"

        for case in ("change", "keep", "tail") * 10:
            while True:
                p = rng.randrange(blocks * s, n) if case == "tail" else rng.randrange(blocks * s)
                c = rng.choice(m.alphabet)
                if case_of(p, c) == case:
                    break
            word[p] = c
            ops = eng.op_count
            eng.update(p, c)
            update = eng.op_count - ops
            ops = eng.op_count
            assert eng.query() == m.member(word), (name, n, p, c)
            assert (update, eng.op_count - ops) == want[case], (name, n, case, p, c)


class _CountingRow(list):
    """A monoid table row that counts the cells read from it in reads[0]."""

    def __init__(self, row, reads):
        super().__init__(row)
        self.reads = reads

    def __getitem__(self, i):
        self.reads[0] += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("name", ["a*b*", "(ab)*"])
def test_query_after_a_tail_edit_reads_no_tail_letters(name):
    # the tail edit keeps the tail's value, so the query that follows reads
    # one monoid-table cell per stable element, for the accept bits, whatever
    # the tail's length r; folding the tail would read r more
    m, sd, rep = CACHED_LANGUAGES[name]()
    n0 = 3 * 2**9  # a block of 6 letters for every n in 2^10..2^11 - 1
    s = make_language_engine(m, sd, rep, ["a"] * n0).s
    reads = {}
    for r in (1, s - 1):
        n = n0 // s * s + r
        if name == "(ab)*":
            word = (["a", "b"] * n)[:n]
        else:
            word = ["a"] * (n // 2) + ["b"] * (n - n // 2)
        eng = make_language_engine(m, sd, rep, list(word))
        assert (eng.s, eng.n - eng.blocks * eng.s) == (s, r), name
        counted = [0]
        target = copy.copy(m.target)
        target.table = [_CountingRow(row, counted) for row in m.target.table]
        eng.morphism = Morphism(target, m.eta, m.accept, m.alphabet)
        rng = random.Random(zlib.crc32(f"tail reads {name} {r}".encode()))
        reads[r] = set()
        for _ in range(20):
            p = rng.randrange(n - r, n)
            word[p] = "ab"[word[p] == "a"]
            eng.update(p, word[p])
            counted[0] = 0
            assert eng.query() == m.member(word), (name, r, p)
            reads[r].add(counted[0])
    assert reads == {r: {len(sd.inclusion)} for r in reads}, name


CACHED_LANGUAGES = {
    "a*b*": lambda: analyze_regex("a*b*", "ab"),
    "(aa)*ba*": lambda: analyze_regex("(aa)*ba*", "ab"),
    "(ab)*": lambda: analyze_regex("(ab)*", "ab"),
    "first letter": lambda: analyze_dfa(FIRST_LETTER_DFA),
}


WINDOW_NAMES = ("a*b*", "first letter")  # the CACHED_LANGUAGES that get the fused window kind


def _spy_on_inner(eng, calls):
    """Record each call into the zg facade's inner engine in calls."""
    inner_update, inner_query = eng.inner.update, eng.inner.query
    eng.inner.update = lambda b, img: (calls.append(("update", b)), inner_update(b, img))
    eng.inner.query = lambda: (calls.append(("query",)), inner_query())[1]


def test_edit_that_keeps_the_block_image_skips_the_inner_engine():
    # an edit that keeps its block's image reaches neither inner.update nor
    # inner.query; on the fused window kind, which has no inner engine, it
    # leaves the counts and the packed key as they were. Against a twin
    # whose bit is cleared before each query, so its evaluation always
    # runs, every update adds the same to op_count; a query that evaluates
    # adds the same as the twin's, and one on a kept bit adds only its own 2
    for name, analyze in CACHED_LANGUAGES.items():
        m, sd, rep = analyze()
        alphabet = m.alphabet
        s = sd.index
        rng = random.Random(zlib.crc32(f"kept block images {name}".encode()))
        n = 8 * s + s - 1  # eight blocks and a tail
        word = [rng.choice(alphabet) for _ in range(n)]
        eng = make_language_engine(m, sd, rep, list(word))
        twin = make_language_engine(m, sd, rep, list(word))
        assert eng.s == s, name
        fused = name in WINDOW_NAMES
        assert type(eng) is (WindowLanguageEngine if fused else LanguageEngine), (name, eng.kind)
        calls = []
        if not fused:
            _spy_on_inner(eng, calls)
        assert eng.query() == twin.query()
        kept = 0
        for _ in range(400):
            p, c = rng.randrange(n), rng.choice(alphabet)
            lo = p - p % s
            block = word[lo : lo + s]
            same = p >= 8 * s or sd.block_image(block) == sd.block_image(
                block[: p - lo] + [c] + block[p - lo + 1 :])
            tail_change = p >= 8 * s and word[p] != c
            calls.clear()
            key = _window_state(eng) if fused else None
            ops, twin_ops = eng.op_count, twin.op_count
            eng.update(p, c)
            twin.update(p, c)
            word[p] = c
            assert eng.op_count - ops == twin.op_count - twin_ops, (name, p, c)
            if fused and same:
                assert _window_state(eng) == key, (name, p, c)
            twin._bit = None
            ops, twin_ops = eng.op_count, twin.op_count
            assert eng.query() == twin.query() == m.member(word), (name, p, c)
            want = [] if same else [("update", p // s)]
            if not same or tail_change:
                want.append(("query",))
                assert eng.op_count - ops == twin.op_count - twin_ops, (name, p, c)
            else:
                assert eng.op_count - ops == 2, (name, p, c)
            if not fused:
                assert calls == want, (name, p, c)
            kept += same and not tail_change
        assert 0 < kept < 400, name
        images = tuple(sd.block_image(word[b * s : (b + 1) * s]) for b in range(8))
        assert _decoded_images(eng) == images, name
        if fused:
            _assert_fused_key(eng, images)
        else:
            assert eng.inner.snapshot() == images, name


@pytest.mark.parametrize("name", [*CACHED_LANGUAGES, "edit-sg"])
def test_same_letter_edit_takes_the_ordinary_path(name):
    # an edit that writes the letter already there is no special case: it
    # pays its own step and one read, in a block or in the tail, on every
    # engine. On the chunked path it keeps its block's image and so reaches
    # neither inner engine method (the fused window kind keeps its counts
    # and key), and its query answers from the kept bit for 2; on the k-ary
    # path it keeps its block's value, so it climbs no level
    if name == "edit-sg":
        m, sd, rep = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")
    else:
        m, sd, rep = CACHED_LANGUAGES[name]()
    s = sd.index
    rng = random.Random(zlib.crc32(f"same letter {name}".encode()))
    n = 8 * s + s - 1
    word = [rng.choice(m.alphabet) for _ in range(n)]
    eng = make_language_engine(m, sd, rep, list(word))
    chunked = name != "edit-sg"
    fused = name in WINDOW_NAMES
    want_type = WindowLanguageEngine if fused else LanguageEngine if chunked else KaryLanguageEngine
    assert type(eng) is want_type, eng.kind
    calls = []
    if want_type is LanguageEngine:
        _spy_on_inner(eng, calls)
    for _ in range(200):
        p = rng.randrange(n)
        c = rng.choice([a for a in m.alphabet if a != word[p]])
        eng.update(p, c)
        word[p] = c
        assert eng.query() == m.member(word), (name, p, c)
        calls.clear()
        key = _window_state(eng) if fused else None
        ops = eng.op_count
        eng.update(p, c)
        assert eng.op_count - ops == 2 and calls == [], (name, p)
        if fused:
            assert _window_state(eng) == key, (name, p)
        ops = eng.op_count
        assert eng.query() == m.member(word), (name, p)
        assert eng.op_count - ops == 2 and calls == [], (name, p)


def _counted_language(table):
    """The words over a, b, c, d of value 1 in the order-4 semigroup S of
    table, the letters its elements 0 to 3, through S with an identity
    adjoined: the stability index is 1, the stable semigroup is S, and its
    verified window plan counts (threshold 5, period 1)."""
    m = Morphism(adjoin_identity(FiniteSemigroup([list(row) for row in table])),
                 {"abcd"[x]: x for x in range(4)}, {1}, "abcd")
    sd = stable_data(m)
    return m, sd, classify_language(m, sd)


WINDOW_LANGUAGES = {
    "a*b*": lambda: analyze_regex("a*b*", "ab"),
    "a(a+b)*b": lambda: analyze_regex("a(a+b)*b", "ab"),
    "(a+b)*a(a+b)*b(a+b)*": lambda: analyze_regex("(a+b)*a(a+b)*b(a+b)*", "ab"),
    "(a+b+c)*ab(a+b+c)*": lambda: analyze_regex("(a+b+c)*ab(a+b+c)*", "abc"),
    "first letter": lambda: analyze_dfa(FIRST_LETTER_DFA),
    "a*(b+c)*": lambda: analyze_regex("a*(b+c)*", "abc"),  # b and c share one image
    # counted plans, reached with no patching: the key without and with the first letter
    "counted": lambda: _counted_language(((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 2), (0, 1, 2, 3))),
    "counted first letter": lambda: _counted_language(((0, 0, 0, 0), (0, 0, 0, 1), (2, 2, 2, 2), (0, 1, 0, 3))),
}


def _refused_edits(eng, alphabet):
    """Edits the engine must refuse: a position past either end, and letters
    outside the alphabet, unhashable ones included, each with its error."""
    n = eng.n
    bad = [(-1, alphabet[0], PositionOutOfRange), (n, alphabet[0], PositionOutOfRange)]
    return bad + [(0, c, RangeError) for c in ("z", [0], None, 1.5) if n]


@pytest.mark.parametrize("name", WINDOW_LANGUAGES)
def test_fused_window_engine_matches_membership(name):
    # the fused window engine against m.member at every word length around
    # the block size, tail edits included, and at 2^12, where a block has
    # several times the stability index's letters, over a code table built
    # up front (a list) and, in its twin, one filled on first read (a dict):
    # both must give the same answers and op counts. snapshot() decodes the
    # letters from the codes, also where two letters share one image
    m, sd, rep = WINDOW_LANGUAGES[name]()
    s, alphabet = sd.index, m.alphabet
    assert name != "a*(b+c)*" or m.eta["b"] == m.eta["c"]
    rng = random.Random(zlib.crc32(f"fused window {name}".encode()))
    for n in sorted({0, 1, s - 1, s, s + 1, 9 * s - 1, 200, 2**12}):
        word = [rng.choice(alphabet) for _ in range(n)]
        eng, lazy = _table_twins(m, sd, rep, word)
        assert type(eng) is type(lazy) is WindowLanguageEngine, (name, eng.kind)
        assert eng.s % s == 0 and (n < 2**12 or eng.s > s), (name, n, eng.s)
        assert eng.snapshot() == lazy.snapshot() == tuple(word), (name, n)
        assert eng.query() == lazy.query() == m.member(word), (name, n)
        tail = n % eng.s
        for k in range(300 if n else 0):
            # every third edit lands in the tail, when there is one
            p = n - 1 - rng.randrange(tail) if tail and k % 3 == 0 else rng.randrange(n)
            c = rng.choice(alphabet)
            for e in (eng, lazy):
                e.update(p, c)
            word[p] = c
            assert eng.query() == lazy.query() == m.member(word), (name, n, p, c)
            assert eng.op_count == lazy.op_count, (name, n, p, c)
            assert eng.snapshot() == tuple(word), (name, n, p, c)
        want, snap, ops = eng.query(), eng.snapshot(), eng.op_count
        for p, c, error in _refused_edits(eng, alphabet):
            with pytest.raises(error):
                eng.update(p, c)
            assert eng.snapshot() == snap and eng.op_count == ops, (name, n, p, c)
        assert eng.query() == want, name
        assert _decoded_images(eng) == _decoded_images(lazy), (name, n)


@pytest.mark.parametrize("name", ["first letter", "(a+b+c)*ab(a+b+c)*", "a*b*", "counted first letter"])
def test_fused_window_engine_keeps_its_end_key(name):
    # the fused engine keeps the end blocks' part of the recovery key and
    # refreshes it only when the image of block 0 or of the last block
    # changes. Edits inside those two blocks alone, on words of 1, 2 and 9
    # blocks of the stability index's letters and of about 2^10 letters in
    # longer blocks, with and without a tail, over the code table built up
    # front and its twin filled on first read, must keep it equal to the
    # value the codes give, with the answers and op counts of both twins in
    # step
    m, sd, rep = WINDOW_LANGUAGES[name]()
    i, alphabet = sd.index, m.alphabet
    assert synthesize_window_plan(sd.stable).first is (name != "a*b*")
    rng = random.Random(zlib.crc32(f"end key {name}".encode()))
    for n in (i, 2 * i - 1, 2 * i, 3 * i - 1, 9 * i, 10 * i - 1, 2**10, 2**10 + 2 * i - 1):
        word = [rng.choice(alphabet) for _ in range(n)]
        eng, lazy = _table_twins(m, sd, rep, word)
        assert type(eng) is type(lazy) is WindowLanguageEngine, (name, eng.kind)
        s, blocks = eng.s, eng.blocks
        assert (s > i) is (n >= 2**10), (name, n, s)
        ends = [*range(s), *range((blocks - 1) * s, blocks * s)]
        for _ in range(60):
            p, c = rng.choice(ends), rng.choice(alphabet)
            word[p] = c
            images = tuple(sd.block_image(word[b * s : (b + 1) * s]) for b in range(blocks))
            for e in (eng, lazy):
                e.update(p, c)
                assert e.query() == m.member(word), (name, n, p, c)
                _assert_fused_key(e, images)
            assert eng.op_count == lazy.op_count, (name, n, p, c)


@pytest.mark.parametrize("name", ["a*b*", "first letter", "counted"])
def test_fused_window_counts_fill_their_fields(name):
    # the fused engine's fields are blocks.bit_length() + 1 bits wide, so a
    # count of blocks, the most a slot can hold, leaves the guard bit clear.
    # On words of 2^m - 1 and 2^m blocks, every block is set to one letter's
    # block, which brings that block image's count to blocks, then to the
    # other letter's, then back: after every edit the answer is m.member's
    # and the fields and key are those of the block images
    m, sd, rep = WINDOW_LANGUAGES[name]()
    i, alphabet = sd.index, m.alphabet
    for blocks in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32):
        word = random.Random(zlib.crc32(f"full fields {name} {blocks}".encode())).choices(alphabet, k=blocks * i)
        eng = make_language_engine(m, sd, rep, list(word))
        assert type(eng) is WindowLanguageEngine and eng.blocks == blocks, (name, blocks, eng.kind)
        full = 0
        for c in (alphabet[0], alphabet[1], alphabet[0]):
            for p in range(blocks * i):
                eng.update(p, c)
                word[p] = c
                assert eng.query() == m.member(word), (name, blocks, p, c)
                _assert_fused_key(eng, tuple(sd.block_image(word[b * i : (b + 1) * i]) for b in range(blocks)))
            full += max(_window_state(eng)[0]) == blocks
        assert full == 3, (name, blocks)


@pytest.mark.parametrize("threshold, period", [(1, 1), (3, 2), (2, 4)])
def test_fused_window_shift_matches_the_reference_engine(threshold, period):
    # the window kind's edits against WindowStatsEngine over its block
    # images, on hand-made plans of each cap shape, presence bits (1, 1)
    # and two counted plans, one with period > 1. After every edit both
    # hold the same counts, key and end blocks' part: the fused engine's
    # key by the SWAR test for presence bits, and by the packing its query
    # runs for a counted plan. No query runs, since a hand-made plan has no
    # recovery table
    for name in ("a*b*", "(a+b+c)*ab(a+b+c)*"):
        m, sd, rep = WINDOW_LANGUAGES[name]()
        i, alphabet = sd.index, m.alphabet
        plan = WindowStatsPlan(False, threshold, period, _nslots(sd.stable))
        rng = random.Random(zlib.crc32(f"fused shift {name} {threshold} {period}".encode()))
        for n in (i, 2 * i + 1, 9 * i, 2**10):
            word = [rng.choice(alphabet) for _ in range(n)]
            eng = WindowLanguageEngine(m, sd, word, plan)
            assert eng.kind == "language[window]", (name, n)
            s = eng.s
            ref = WindowStatsEngine(sd.stable, list(_decoded_images(eng)), plan)
            assert _window_state(eng) == _window_state(ref), (name, n)
            for _ in range(200):
                p, c = rng.randrange(n), rng.choice(alphabet)
                eng.update(p, c)
                if p < eng.blocks * s:
                    ref.update(p // s, eng._img[eng.codes[p // s]])
                assert _window_state(eng) == _window_state(ref), (name, n, p, c)


def test_code_table_refuses_an_image_outside_the_stable_semigroup():
    # the code table filled on first read checks what the list table's
    # _imaged checks: a code whose monoid value the image maps to -1, outside
    # the stable semigroup, raises InternalError and is not stored, where
    # the fused window engine would read -1 as no neighbour
    m, sd, rep = analyze_regex("a*b*", "ab")
    s, letters = sd.index, list(m.eta)
    ids = [m.eta[a] for a in letters]
    places = [len(letters) ** (s - 1 - r) for r in range(s)]
    image = _stable_image(m, sd)
    assert language._CodeTable(m, image, ids, places, len(letters))[0] == sd.block_image(letters[:1] * s)
    v = m.target.identity
    for _ in range(s):  # code 0: s copies of the first letter
        v = m.target.table[v][ids[0]]
    image[v] = -1
    table = language._CodeTable(m, image, ids, places, len(letters))
    with pytest.raises(InternalError, match="outside the stable semigroup"):
        table[0]
    assert len(table) == 0


def test_codes_past_64_bits_stay_exact():
    # a's counted modulo 70 over {a, b}: s = 69, so a block has 2^69 codes,
    # kept as Python ints in a list, with the code table filled on first read
    k = 70
    m, sd, rep = analyze_dfa(Dfa("ab", [[(q + 1) % k, q] for q in range(k)], 0, {0}))
    s = sd.index
    assert rep.cls == Q_LZG and 2**s > 2**64
    rng = random.Random(zlib.crc32(b"codes past 64 bits"))
    for n in (0, 1, s, s + 1, 3 * s + 5):
        word = [rng.choice("ab") for _ in range(n)]
        eng = make_language_engine(m, sd, rep, list(word))
        assert type(eng.codes) is list and type(eng._img) is not list, eng.kind
        for _ in range(100 if n else 0):
            p, c = rng.randrange(n), rng.choice("ab")
            eng.update(p, c)
            word[p] = c
            assert eng.query() == m.member(word), (n, p, c)
        assert eng.snapshot() == tuple(word), n


@pytest.mark.parametrize("rx", ["(aa)*ba*", "(ab)*"])
def test_zg_language_without_a_certificate_gets_the_fused_window_engine(rx, monkeypatch):
    # these stable semigroups are in ZG and have a window plan: with a
    # certificate they build the zg kind; where the certificate search finds
    # none (forced here), the window plan serves them through the fused
    # window engine, not through the k-ary tree, whether the plan keeps
    # presence bits, as (ab)*'s does, or counts to 5, as (aa)*ba*'s does
    m, sd, rep = analyze_regex(rx, "ab")
    assert make_language_engine(m, sd, rep, []).kind == "language[zg]"
    monkeypatch.setattr(zg, "_certificate", lambda monoid: None)
    assert zg.zg_certificate(sd.stable) is None
    with pytest.raises(NoZgCertificate):
        make_zg_engine(sd.stable, [0])
    rng = random.Random(zlib.crc32(f"no certificate {rx}".encode()))
    for n in (0, 1, 2, 3, 64):
        word = [rng.choice("ab") for _ in range(n)]
        eng = make_language_engine(m, sd, rep, list(word))
        assert type(eng) is WindowLanguageEngine and (eng.plan.radix == 2) is (rx == "(ab)*"), (rx, type(eng))
        assert eng.kind == "language[window]", (rx, eng.kind)
        assert eng.query() == m.member(word), (rx, n)
        for _ in range(100 if n else 0):
            p, c = rng.randrange(n), rng.choice("ab")
            eng.update(p, c)
            word[p] = c
            assert eng.query() == m.member(word), (rx, n, p, c)


@pytest.mark.parametrize("name", CACHED_LANGUAGES)
def test_both_code_tables_give_each_code_its_block_image(name):
    # the code table built up front (a list over every code, for a word of at
    # least EAGER_LETTERS letters per code) and the one filled on first read
    # (a dict, for a shorter word, which folds a code's letters through the
    # monoid table itself) give every code the image sd.block_image gives its
    # letters; the dict holds only the codes read, and the stable data's own
    # block memo stays as it was
    m, sd, rep = CACHED_LANGUAGES[name]()
    s = sd.index
    ncodes = len(m.alphabet) ** s
    word = [m.alphabet[0]] * (language.EAGER_LETTERS * ncodes)
    eager = make_language_engine(m, sd, rep, word)
    lazy = make_language_engine(m, sd, rep, word[:-1])
    assert type(eager._img) is list and len(eager._img) == ncodes, name
    assert type(lazy._img) is not list and len(lazy._img) == 0, name
    memo = dict(sd.block_images)
    got = [lazy._img[code] for code in reversed(range(ncodes))][::-1]
    assert len(lazy._img) == ncodes and sd.block_images == memo, name
    places = [len(m.alphabet) ** (s - 1 - r) for r in range(s)]
    letters = eager.letters
    want = [sd.block_image([letters[code // p % len(letters)] for p in places]) for code in range(ncodes)]
    assert got == eager._img == want, name
