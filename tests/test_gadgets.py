import itertools
import random
import re

import pytest

from dynreg.errors import InternalError, NotAWitness, RangeError
from dynreg.gadgets import (
    InfixAdapter,
    LangU1Adapter,
    LangU2Adapter,
    PrefixU1ViaMonoid,
    find_ze_witness,
)
from dynreg.gallery import cyclic, u2
from dynreg.syntactic import minimize_dfa, parse_regex, regex_to_dfa

L_U1 = re.compile(r"c*x[ac]*$")
L_U2 = re.compile(r"[abc]*bc*x[abc]*$")


def test_witness_refused_for_ze_monoid():
    z3 = cyclic(3)
    assert find_ze_witness(z3) is None
    with pytest.raises(NotAWitness):
        PrefixU1ViaMonoid(z3, 1, 2, 4)


def test_prefix_u1_all_neutral_word():
    m = u2()
    x, y = find_ze_witness(m)
    g = PrefixU1ViaMonoid(m, x, y, 2, word=[1, 1])
    assert all(g.query(j) is False for j in range(3))


def test_prefix_u1_exhaustive_length_4():
    m = u2()
    x, y = find_ze_witness(m)
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
    x, y = find_ze_witness(m)
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
            ad = LangU1Adapter("language-to-problem", list(w))
            assert ad.member_query() == bool(L_U1.match("".join(w))), w


def test_lang_u1_prefix_exhaustive():
    for n in range(1, 6):
        for bits in itertools.product((0, 1), repeat=n):
            ad = LangU1Adapter("problem-to-language", list(bits))
            for j in range(1, n + 1):
                assert ad.prefix_query(j) == any(b == 0 for b in bits[:j])


def test_lang_u2_prefix_exhaustive():
    for n in range(1, 6):
        for w in itertools.product("1ab", repeat=n):
            ad = LangU2Adapter("problem-to-language", list(w))
            snap = ad.engine.snapshot()
            for k in range(1, n + 1):
                nonneutral = [c for c in w[:k] if c != "1"]
                want = nonneutral[-1] if nonneutral else "1"
                assert ad.prefix_query(k) == want, (w, k)
                assert ad.engine.snapshot() == snap


def test_lang_u2_membership_exhaustive():
    for n in range(1, 6):
        for w in itertools.product("abcx", repeat=n):
            ad = LangU2Adapter("language-to-problem", list(w))
            assert ad.member_query() == bool(L_U2.match("".join(w))), w


def test_lang_adapters_random_updates():
    rng = random.Random(7)
    n = 64
    w = [rng.choice("abcx") for _ in range(n)]
    ad = LangU2Adapter("language-to-problem", list(w))
    for _ in range(300):
        i, c = rng.randrange(n), rng.choice("abcx")
        ad.set_letter(i, c)
        w[i] = c
        assert ad.member_query() == bool(L_U2.match("".join(w)))

    bits = [rng.randrange(2) for _ in range(n)]
    ad1 = LangU1Adapter("problem-to-language", list(bits))
    for _ in range(300):
        i, b = rng.randrange(n), rng.randrange(2)
        ad1.set_letter(i, b)
        bits[i] = b
        j = rng.randrange(1, n + 1)
        assert ad1.prefix_query(j) == any(v == 0 for v in bits[:j])


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


@pytest.mark.parametrize("adapter,direction,word,query", [
    (LangU2Adapter, "language-to-problem", list("abx"), lambda ad: ad.prefix_query(1)),
    (LangU2Adapter, "problem-to-language", list("1ab"), lambda ad: ad.member_query()),
    (LangU1Adapter, "language-to-problem", list("acx"), lambda ad: ad.prefix_query(1)),
    (LangU1Adapter, "problem-to-language", [0, 1, 1], lambda ad: ad.member_query()),
])
def test_query_in_the_wrong_direction_raises_internal_error(adapter, direction, word, query):
    # a raise, not an assert, so the check also holds under python -O
    ad = adapter(direction, word)
    with pytest.raises(InternalError, match="has no"):
        query(ad)
    assert ad.queries == 0
