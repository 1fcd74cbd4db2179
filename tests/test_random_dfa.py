"""Seeded random-DFA differential: every language engine the facade builds
for a random DFA answers as the DFA's own morphism does, and the vEB engine,
built by name over each Q_SG_ONLY stable semigroup, answers as the naive
engine does.

The DFAs (2-4 states, 2-3 letters, syntactic monoid of at most 30 elements)
are the first ones one fixed seed draws, so every run checks the same
languages, words and edits whatever PYTHONHASHSEED is. The facade builds
the k-ary tree for every Q_SG_ONLY language, so the vEB engine is driven
directly. Its edits only relabel the top layer's letters, so an edit that
changes the entry count of a layer below the top has been through a layer
rule's inserts or deletes; the test asserts that some edits do.
"""

import random
import zlib

from dynreg.engines import (
    WindowLanguageEngine,
    make_kary_engine,
    make_language_engine,
    make_naive_engine,
    make_sg_engine,
    make_windowstats_engine,
    make_zg_engine,
)
from dynreg.errors import NoPlan, NotApplicable
from dynreg.syntactic import Q_LZG, Q_SG_ONLY, Dfa, analyze_dfa

DFAS = 200
MONOID_CAP = 30
NS = (0, 1, 2, 3, 5, 9, 70, 140)
EDITS = 60
# The semigroup-level engines a Q_LZG language's stable semigroup can take,
# in the order dispatch.route tries them: the language's kind must name the
# first that builds.
REFERENCE_LADDER = (("zg", make_zg_engine), ("window", make_windowstats_engine), ("kary", make_kary_engine))


def reference_pick(semigroup):
    """The name of the first rung of REFERENCE_LADDER whose factory builds
    over semigroup; the last rung reads kary-downgraded once an earlier
    rung raised NoPlan, its class held but no plan was found."""
    lost = False
    for name, factory in REFERENCE_LADDER[:-1]:
        try:
            factory(semigroup, [])
            return name
        except NoPlan:
            lost = True
        except NotApplicable:
            pass
    return REFERENCE_LADDER[-1][0] + ("-downgraded" if lost else "")


def random_dfas(rng, count):
    """The first `count` DFAs drawn from rng whose monoid is small enough,
    each with its analysis."""
    out = []
    while len(out) < count:
        states, letters = rng.randint(2, 4), rng.randint(2, 3)
        alphabet = "abc"[:letters]
        delta = [[rng.randrange(states) for _ in range(letters)] for _ in range(states)]
        finals = [q for q in range(states) if rng.random() < 0.5]
        m, sd, report = analyze_dfa(Dfa(alphabet, delta, 0, finals))
        if m.target.size <= MONOID_CAP:
            out.append((alphabet, delta, finals, m, sd, report))
    return out


def _sizes_below_top(eng):
    """The entry counts of the sg layers below the top one."""
    return [len(layer.inp) for layer in eng.layers[1:]]


def _sg_differential(s, n, rng):
    """EDITS random edits on the vEB engine over s against the naive
    engine; returns how many of them changed the entry count of a layer
    below the top."""
    word = [rng.randrange(s.size) for _ in range(n)]
    eng, naive = make_sg_engine(s, list(word)), make_naive_engine(s, list(word))
    assert eng.query() == naive.query(), (s.table, n)
    resized = 0
    for _ in range(EDITS if n else 0):
        p, a = rng.randrange(n), rng.randrange(s.size)
        before = _sizes_below_top(eng)
        eng.update(p, a)
        naive.update(p, a)
        resized += _sizes_below_top(eng) != before
        assert eng.query() == naive.query(), (s.table, n, p, a)
    return resized


def test_random_dfa_differential():
    rng = random.Random(zlib.crc32(b"random-dfa differential"))
    kinds, resized = set(), 0
    for alphabet, delta, finals, m, sd, report in random_dfas(rng, DFAS):
        for n in NS:
            word = [rng.choice(alphabet) for _ in range(n)]
            eng = make_language_engine(m, sd, report, word)
            kinds.add(eng.kind)
            if report.cls == Q_LZG and not n:
                tag = reference_pick(sd.stable)
                assert eng.kind == f"language[{tag}]", (delta, finals)
                assert (type(eng) is WindowLanguageEngine) is (tag == "window"), (delta, finals)
            assert eng.query() == m.member(word), (delta, finals, n)
            for _ in range(EDITS if n else 0):
                p, a = rng.randrange(n), rng.choice(alphabet)
                word[p] = a
                eng.update(p, a)
                assert eng.query() == m.member(word), (delta, finals, n, p, a)
            if report.cls == Q_SG_ONLY:
                resized += _sg_differential(sd.stable, n, rng)
    assert {"language[zg]", "language[window]", "language[kary]"} <= kinds
    assert resized, "no edit changed the entry count of an sg layer below the top"
