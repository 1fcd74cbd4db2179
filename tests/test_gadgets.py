import itertools
import random
import re
import zlib

import pytest

from helpers import membership_l_u1, membership_l_u2

from dynreg.algebra import find_violation
from dynreg.engines import make_language_engine
from dynreg.errors import NotAWitness, PositionOutOfRange, RangeError
from dynreg.gadgets import (
    InfixAdapter,
    PrefixU1ViaLanguage,
    PrefixU1ViaMonoid,
    PrefixU2ViaLanguage,
)
from dynreg.gallery import cyclic, u2
from dynreg.syntactic import analyze_regex, minimize_dfa, parse_regex, regex_to_dfa

L_U1 = re.compile(r"c*x[ac]*$")
L_U2 = re.compile(r"[abc]*bc*x[abc]*$")


def test_witness_refused_for_ze_monoid():
    z3 = cyclic(3)
    assert find_violation(z3, "ZE") is None
    with pytest.raises(NotAWitness):
        PrefixU1ViaMonoid(z3, 1, 2, 4)


def test_prefix_u1_all_neutral_word():
    m = u2()
    x, y = find_violation(m, "ZE")
    g = PrefixU1ViaMonoid(m, x, y, 2, word=[1, 1])
    assert all(g.query(j) is False for j in range(3))


def test_prefix_u1_exhaustive_length_4():
    m = u2()
    x, y = find_violation(m, "ZE")
    for bits in itertools.product((0, 1), repeat=4):
        g = PrefixU1ViaMonoid(m, x, y, 4, word=list(bits))
        snap = g.engine.snapshot()
        for j in range(5):
            assert g.query(j) == any(b == 0 for b in bits[:j]), (bits, j)
            assert g.engine.snapshot() == snap  # probe-then-restore
        g.set_bit(1, 0)
        cur = list(bits)
        cur[1] = 0
        for j in range(5):
            assert g.query(j) == any(b == 0 for b in cur[:j])


def test_prefix_u1_random_words():
    m = u2()
    x, y = find_violation(m, "ZE")
    rng = random.Random(44)
    n = 64
    bits = [rng.randrange(2) for _ in range(n)]
    g = PrefixU1ViaMonoid(m, x, y, n, word=list(bits))
    for _ in range(400):
        i = rng.randrange(n)
        b = rng.randrange(2)
        g.set_bit(i, b)
        bits[i] = b
        j = rng.randrange(n + 1)
        assert g.query(j) == any(v == 0 for v in bits[:j])


def test_lang_u1_membership_exhaustive():
    for n in range(1, 6):
        for w in itertools.product("acx", repeat=n):
            ad = membership_l_u1(list(w))
            assert ad.query() == bool(L_U1.match("".join(w))), w


def test_lang_u1_prefix_exhaustive():
    for n in range(1, 6):
        for bits in itertools.product((0, 1), repeat=n):
            ad = PrefixU1ViaLanguage(list(bits))
            for j in range(1, n + 1):
                assert ad.query(j) == any(b == 0 for b in bits[:j])


def test_lang_u2_prefix_exhaustive():
    for n in range(1, 6):
        for w in itertools.product("1ab", repeat=n):
            ad = PrefixU2ViaLanguage(list(w))
            snap = ad.engine.snapshot()
            for k in range(1, n + 1):
                nonneutral = [c for c in w[:k] if c != "1"]
                want = nonneutral[-1] if nonneutral else "1"
                assert ad.query(k) == want, (w, k)
                assert ad.engine.snapshot() == snap


def test_lang_u2_membership_exhaustive():
    for n in range(1, 6):
        for w in itertools.product("abcx", repeat=n):
            ad = membership_l_u2(list(w))
            assert ad.query() == bool(L_U2.match("".join(w))), w


def test_lang_adapters_random_updates():
    rng = random.Random(7)
    n = 64
    w = [rng.choice("abcx") for _ in range(n)]
    ad = membership_l_u2(list(w))
    for _ in range(300):
        i, c = rng.randrange(n), rng.choice("abcx")
        ad.set_letter(i, c)
        w[i] = c
        assert ad.query() == bool(L_U2.match("".join(w)))

    bits = [rng.randrange(2) for _ in range(n)]
    ad1 = PrefixU1ViaLanguage(list(bits))
    for _ in range(300):
        i, b = rng.randrange(n), rng.randrange(2)
        ad1.set_bit(i, b)
        bits[i] = b
        j = rng.randrange(1, n + 1)
        assert ad1.query(j) == any(v == 0 for v in bits[:j])


def _abstar_dfa():
    return minimize_dfa(regex_to_dfa(parse_regex("a*b*", "ab"), "ab"))


def test_infix_adapter_examples():
    d = _abstar_dfa()
    ad = InfixAdapter(d, list("aabb"))
    assert ad.infix_query(0, 3) is True
    assert ad.infix_query(1, 2) is True  # "ab"
    ad2 = InfixAdapter(d, list("abab"))
    assert ad2.infix_query(0, 3) is False
    with pytest.raises(RangeError):
        ad2.infix_query(2, 1)


def test_infix_adapter_exhaustive_small():
    d = _abstar_dfa()
    pat = re.compile(r"a*b*$")
    for n in (1, 2, 3, 4):
        for w in itertools.product("ab", repeat=n):
            ad = InfixAdapter(d, list(w))
            snap = ad.engine.snapshot()
            for i in range(n):
                for j in range(i, n):
                    want = bool(pat.match("".join(w[i : j + 1])))
                    assert ad.infix_query(i, j) == want, (w, i, j)
                    assert ad.engine.snapshot() == snap


def test_infix_adapter_random_n64():
    d = _abstar_dfa()
    pat = re.compile(r"a*b*$")
    rng = random.Random(15)
    w = [rng.choice("ab") for _ in range(64)]
    ad = InfixAdapter(d, list(w))
    for _ in range(400):
        i = rng.randrange(64)
        j = rng.randrange(i, 64)
        assert ad.infix_query(i, j) == bool(pat.match("".join(w[i : j + 1])))
        p, c = rng.randrange(64), rng.choice("ab")
        ad.set_letter(p, c)
        w[p] = c


@pytest.mark.parametrize("rx", ["a*b*", "(a+b)*a(a+b)*b(a+b)*", "a(a+b)*b"])
def test_infix_answers_follow_set_letter_on_window_languages(rx):
    # languages whose own facade is the window kind. The adapter reads the
    # letters around an infix from its own word, the pad letter past either
    # end, and not from the engine, whose kind follows the marked language
    # (a*b*'s gets language[kary], a(a+b)*b's language[kary-downgraded]);
    # a chunked kind keeps no letter list
    m = analyze_regex(rx, "ab")[0]
    assert make_language_engine(*analyze_regex(rx, "ab"), list("ab")).kind == "language[window]"
    d = minimize_dfa(regex_to_dfa(parse_regex(rx, "ab"), "ab"))
    rng = random.Random(zlib.crc32(f"infix {rx}".encode()))
    n = 40
    w = [rng.choice("ab") for _ in range(n)]
    ad = InfixAdapter(d, list(w))
    for _ in range(300):
        p, c = rng.randrange(n), rng.choice("ab")
        ad.set_letter(p, c)
        w[p] = c
        i = rng.choice([0, rng.randrange(n)])
        j = rng.choice([n - 1, rng.randrange(i, n)])
        assert ad.infix_query(i, j) == m.member(w[i : j + 1]), (rx, i, j)
        assert ad.engine.snapshot() == (ad.pad, *w, ad.pad), rx


# (name, build, setter, query, want, good letter, bad letter): on each
# three-letter word the bad letter, written where it would change the answer,
# and the good letter at positions -1 and 3 are refused
REFUSED_EDITS = [
    ("u1-monoid", lambda: PrefixU1ViaMonoid(u2(), *find_violation(u2(), "ZE"), 3, [1, 0, 1]),
     "set_bit", lambda g: g.query(3), True, 0, 7),
    ("u1-language", lambda: PrefixU1ViaLanguage([1, 0, 1]),
     "set_bit", lambda g: g.query(3), True, 0, 7),
    ("u2-language", lambda: PrefixU2ViaLanguage(list("1ab")),
     "set_letter", lambda g: g.query(3), "b", "a", "c"),
    ("l-u1", lambda: membership_l_u1(list("cxa")),
     "set_letter", lambda g: g.query(), True, "c", "b"),
    ("l-u2", lambda: membership_l_u2(list("bxa")),
     "set_letter", lambda g: g.query(), True, "c", "d"),
    ("infix", lambda: InfixAdapter(_abstar_dfa(), list("aab")),
     "set_letter", lambda g: g.infix_query(0, 2), True, "a", "c"),
]


@pytest.mark.parametrize("pos,bad", [(1, True), (-1, False), (3, False)],
                         ids=["bad-letter", "position-minus-1", "position-n"])
@pytest.mark.parametrize("name,build,setter,query,want,good,bad_letter", REFUSED_EDITS,
                         ids=[case[0] for case in REFUSED_EDITS])
def test_a_refused_edit_changes_nothing(name, build, setter, query, want, good, bad_letter,
                                        pos, bad):
    # a raise, not an assert, so the check also holds under python -O
    g = build()
    with pytest.raises(RangeError if bad else PositionOutOfRange):
        getattr(g, setter)(pos, bad_letter if bad else good)
    assert query(g) == want, name
