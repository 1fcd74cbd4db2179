import itertools

import pytest

from dynreg.algebra import check_variety
from dynreg.errors import InternalError, RegexSyntaxError
from dynreg.gallery import ab_star_semigroup
from dynreg.syntactic import (
    Morphism,
    OUTSIDE_Q_SG,
    Q_LZG,
    Q_SG_ONLY,
    analyze_regex,
    classify_language,
    minimize_dfa,
    parse_regex,
    regex_to_dfa,
    stable_data,
    syntactic_monoid,
)
from dynreg.syntactic.dfa import Dfa, is_minimal


def _dfa(rx, alpha):
    return minimize_dfa(regex_to_dfa(parse_regex(rx, alpha), alpha))


def _all_words(alpha, up_to):
    for n in range(up_to + 1):
        yield from ("".join(w) for w in itertools.product(alpha, repeat=n))


# -- regex ------------------------------------------------------------------


def test_parse_shapes():
    ast = parse_regex("a*b*", "ab")
    assert ast == ("cat", ("star", ("lit", "a")), ("star", ("lit", "b")))
    assert parse_regex("(aa)*ba*", "ab")[0] == "cat"
    assert parse_regex("()", "ab") == ("eps",)


def test_parse_errors():
    with pytest.raises(RegexSyntaxError):
        parse_regex("a**)", "ab")
    with pytest.raises(RegexSyntaxError) as ei:
        parse_regex("a*c", "ab")
    assert ei.value.position == 2
    with pytest.raises(RegexSyntaxError):
        parse_regex("a+", "ab")


# -- dfa ----------------------------------------------------------------------


def test_dfa_accepts_tuple_rows():
    d = Dfa("ab", ((1, 0), (1, 1)), 0, (1,))
    assert d.delta == [[1, 0], [1, 1]]
    assert d.accepts("ba") and not d.accepts("bb")


def test_minimal_dfa_sizes():
    assert _dfa("a*b*", "ab").states == 3  # sink included
    assert _dfa("(a+b)*", "ab").states == 1
    assert _dfa("(aa)*", "a").states == 2


def test_dfa_language_cross_check():
    d = _dfa("a*b*", "ab")
    import re

    pat = re.compile(r"a*b*$")
    for w in _all_words("ab", 6):
        assert d.accepts(w) == bool(pat.match(w)), w


def test_minimize_idempotent_and_canonical():
    d = regex_to_dfa(parse_regex("a*b*", "ab"), "ab")
    m1 = minimize_dfa(d)
    m2 = minimize_dfa(m1)
    assert m1.delta == m2.delta and m1.finals == m2.finals
    assert is_minimal(m1)


# -- syntactic monoid ---------------------------------------------------------


def test_syntactic_monoid_ab_star():
    m = syntactic_monoid(_dfa("a*b*", "ab"))
    M = m.target
    assert M.size == 5 and M.identity is not None
    a, b = m.eta["a"], m.eta["b"]
    ab = M.table[a][b]
    assert M.table[a][a] == a and M.table[b][b] == b
    assert M.table[b][a] == M.zero
    assert sorted({a, b, ab, M.zero, M.identity}) == list(range(5))


def test_syntactic_monoid_parity():
    m = syntactic_monoid(_dfa("(b*ab*a)*b*", "ab"))  # even number of a's
    assert m.target.size == 2
    assert m.eta["b"] == m.target.identity


def test_syntactic_monoid_outside_sg():
    m, sd, rep = analyze_regex("(aa)*ba*", "ab")
    assert not check_variety(m.target, "SG")
    assert rep.cls == Q_LZG  # stable semigroup rescues the language


def test_non_minimal_dfa_gives_the_minimal_dfas_monoid():
    # syntactic_monoid minimizes its input, and minimization is canonical
    d = regex_to_dfa(parse_regex("a*b*", "ab"), "ab")
    assert not is_minimal(d)
    got, want = syntactic_monoid(d), syntactic_monoid(minimize_dfa(d))
    assert got.target.table == want.target.table
    assert (got.eta, got.accept) == (want.eta, want.accept)


def test_morphism_property_small_words():
    m = syntactic_monoid(_dfa("a*b*", "ab"))
    words = list(_all_words("ab", 4))
    for u in words:
        for v in words:
            if len(u) + len(v) <= 4:
                assert m.image(u + v) == m.target.table[m.image(u)][m.image(v)]


def test_recognition_matches_dfa():
    d = _dfa("(aa)*ba*", "ab")
    m = syntactic_monoid(d)
    for w in _all_words("ab", 8):
        assert m.member(w) == d.accepts(w), w


def test_syntactic_divides_any_transition_monoid():
    d = _dfa("a*b*", "ab")
    # build a redundant DFA by tagging states with a parity bit
    delta = []
    for q in range(d.states):
        for bit in range(2):
            delta.append([d.delta[q][a] * 2 + (1 - bit) for a in range(2)])
    redundant = Dfa("ab", delta, d.initial * 2, {f * 2 + b for f in d.finals for b in range(2)})
    m_min = syntactic_monoid(d)
    big = syntactic_monoid(minimize_dfa(redundant))
    assert big.target.size == m_min.target.size
    # raw transition closure of the redundant automaton is at least as large
    n = redundant.states
    ident = tuple(range(n))
    letter_tf = {
        a: tuple(redundant.delta[q][i] for q in range(n))
        for i, a in enumerate(redundant.alphabet)
    }
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for tf in frontier:
            for a in redundant.alphabet:
                la = letter_tf[a]
                comp = tuple(la[tf[q]] for q in range(n))
                if comp not in elems:
                    elems.add(comp)
                    nxt.append(comp)
        frontier = nxt
    assert len(elems) >= m_min.target.size


# -- stable semigroup ----------------------------------------------------------


def test_stable_ab_star():
    m = syntactic_monoid(_dfa("a*b*", "ab"))
    sd = stable_data(m)
    assert sd.index == 2
    assert sd.stable.size == 4
    img = {m.target.names[i] for i in sd.inclusion}
    assert img == {"a", "b", "ab", "ba"}  # "ba" is the zero


def test_stable_unary_parity():
    from dynreg.gallery import cyclic

    z2 = cyclic(2)
    m = Morphism(z2, {"a": 1}, {0, 1}, "a")
    sd = stable_data(m)
    assert sd.index == 2
    assert sd.stable.size == 1 and sd.inclusion == [0]


def test_stable_index_one_when_letters_idempotent():
    m, sd, rep = analyze_regex("(a+b)*", "ab")
    assert sd.index == 1


def test_stable_set_is_stable():
    for rx, alpha in [("a*b*", "ab"), ("(aa)*ba*", "ab"), ("c*x(a+c)*", "acx")]:
        m, sd, rep = analyze_regex(rx, alpha)
        img = set(sd.inclusion)
        prods = {m.target.table[x][y] for x in img for y in img}
        assert prods == img, rx


def test_block_image_memoized():
    m, sd, rep = analyze_regex("a*b*", "ab")
    assert sd.block_image("ab") == sd.block_image(("a", "b"))
    v = sd.block_image("ba")
    assert sd.inclusion[v] == m.image("ba")


def test_block_image_of_a_block_of_two_stability_indices():
    # eta(A^2s) = eta(A^s), so a 2s-letter block has its image in the stable
    # semigroup too, the image of its letters' product
    for rx in ("a*b*", "(aa)*ba*", "(ab)*"):
        m, sd, rep = analyze_regex(rx, "ab")
        for block in itertools.product("ab", repeat=2 * sd.index):
            assert sd.inclusion[sd.block_image(block)] == m.image(block), (rx, block)


def test_block_image_refuses_a_length_that_is_not_a_multiple_of_s():
    m, sd, rep = analyze_regex("a*b*", "ab")
    assert sd.index == 2
    for block in ("", "a", "aba", "abbab"):
        with pytest.raises(InternalError, match="not a multiple of the stability index"):
            sd.block_image(block)
    assert sd.block_images == {}


# -- classifier ---------------------------------------------------------------


def test_classify_examples():
    cases = {
        ("a*b*", "ab"): Q_LZG,
        ("(aa)*ba*", "ab"): Q_LZG,
        ("(a+b+c)*bc*x(a+b+c)*", "abcx"): Q_SG_ONLY,
        ("c*x(a+c)*", "acx"): Q_SG_ONLY,
    }
    for (rx, alpha), want in cases.items():
        m, sd, rep = analyze_regex(rx, alpha)
        assert rep.cls == want, rx


def test_classify_s3_language():
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    a, b = (1, 0, 2), (1, 2, 0)

    def app(p, g):
        return tuple(g[p[k]] for k in range(3))

    delta = [[idx[app(p, a)], idx[app(p, b)]] for p in perms]
    d = minimize_dfa(Dfa("ab", delta, idx[(0, 1, 2)], {idx[(0, 1, 2)]}))
    m = syntactic_monoid(d)
    sd = stable_data(m)
    rep = classify_language(m, sd)
    assert rep.cls == OUTSIDE_Q_SG
    assert "sg_violation" in rep.witnesses


def test_monotonicity_q_lzg_implies_sg(gal):
    for rx, alpha in [("a*b*", "ab"), ("(aa)*ba*", "ab")]:
        m, sd, rep = analyze_regex(rx, alpha)
        assert rep.cls == Q_LZG
        assert check_variety(sd.stable, "SG")
