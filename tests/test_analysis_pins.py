"""The analysis layer's outputs, pinned by crc32 over a seeded corpus.

Each stage of the pipeline (regex -> DFA -> minimal DFA -> syntactic monoid
-> stable semigroup -> classification) and the algebra it uses (Green's
classes, generated subsemigroups, congruences) is run over the same inputs:
the first DFAS random DFAs one fixed seed draws (2-4 states, 2-3 letters),
the regexes the ROADMAP names, and the gallery semigroups. A change to any
element id, element name, class order or answer moves a checksum. Sets are
sorted before hashing, so the checksums do not depend on PYTHONHASHSEED.
"""

import random
import zlib
from functools import cache

import pytest

from dynreg.algebra import enumerate_congruences, generated_subsemigroup, green_j
from dynreg.algebra.green import l_equivalent_classes, r_equivalent_classes
from dynreg.gallery import gallery
from dynreg.syntactic import (
    Dfa,
    classify_language,
    minimize_dfa,
    parse_regex,
    regex_to_dfa,
    stable_data,
    syntactic_monoid,
)

DFAS = 200
REGEXES = (
    ("a*b*", "ab"),
    ("(ab)*", "ab"),
    ("(aa)*ba*", "ab"),
    ("(b+ab*a)*b", "ab"),
    ("(a+b+c)*bc*x(a+b+c)*", "abcx"),
    ("((abc)(abc))*((acb)(acb))*", "abc"),
)
# Green's classes and subsemigroups are pinned on semigroups up to this size
ALGEBRA_CAP = 40
# congruences are enumerated for monoids and gallery semigroups up to these sizes
CONGRUENCE_MONOID_CAP = 7
CONGRUENCE_GALLERY_CAP = 12


@cache
def corpus():
    """(dfas, monoids): the corpus DFAs, the regexes' subset-construction
    DFAs included, and each one's syntactic morphism and stable data."""
    rng = random.Random(zlib.crc32(b"analysis pins"))
    dfas = [regex_to_dfa(parse_regex(rx, sigma), sigma) for rx, sigma in REGEXES]
    for _ in range(DFAS):
        states, letters = rng.randint(2, 4), rng.randint(2, 3)
        delta = [[rng.randrange(states) for _ in range(letters)] for _ in range(states)]
        finals = [q for q in range(states) if rng.random() < 0.5]
        dfas.append(Dfa("abc"[:letters], delta, 0, finals))
    monoids = [(m, stable_data(m)) for m in map(syntactic_monoid, dfas)]
    return dfas, monoids


def _semigroups():
    """Every semigroup the algebra pins run over: the corpus's syntactic
    monoids and stable semigroups of at most ALGEBRA_CAP elements, then the
    gallery's."""
    _, monoids = corpus()
    found = [s for m, sd in monoids for s in (m.target, sd.stable) if s.size <= ALGEBRA_CAP]
    return found + list(gallery().values())


def _green(s):
    j = green_j(s)
    return (j.class_of, j.classes, sorted(j.less), j.maximal_classes, j.regular,
            [(r_equivalent_classes(s, c), l_equivalent_classes(s, c)) for c in j.classes],
            r_equivalent_classes(s, range(s.size)), l_equivalent_classes(s, range(s.size)))


def _subsemigroups(s):
    seeds = [[x] for x in range(s.size)] + [[x, (x + 1) % s.size] for x in range(s.size)]
    return [(sub.table, sub.names, incl)
            for sub, incl in (generated_subsemigroup(s, seed) for seed in seeds)]


def _congruences():
    _, monoids = corpus()
    small = [m.target for m, _ in monoids if m.target.size <= CONGRUENCE_MONOID_CAP]
    small += [s for s in gallery().values() if s.size <= CONGRUENCE_GALLERY_CAP]
    return [[c.blocks for c in enumerate_congruences(s)] for s in small]


PARTS = {
    "dfa": lambda: [(d.alphabet, d.delta, d.initial, sorted(d.finals)) for d in corpus()[0]],
    "minimal": lambda: [(d.delta, sorted(d.finals)) for d in map(minimize_dfa, corpus()[0])],
    "monoid": lambda: [(m.target.table, m.target.names, m.eta, sorted(m.accept), m.alphabet)
                       for m, _ in corpus()[1]],
    "stable": lambda: [(sd.index, sd.stable.table, sd.stable.names, sd.inclusion)
                       for _, sd in corpus()[1]],
    "classify": lambda: [classify_language(m, sd).to_dict() for m, sd in corpus()[1]],
    "green": lambda: [_green(s) for s in _semigroups()],
    "subsemigroups": lambda: [_subsemigroups(s) for s in _semigroups()],
    "congruences": _congruences,
}

# crc32 of repr(PARTS[name]())
PINNED_ANALYSIS = {
    "dfa": 2529975646,
    "minimal": 3133621175,
    "monoid": 257642026,
    "stable": 1665556632,
    "classify": 999440109,
    "green": 1329404938,
    "subsemigroups": 2999286621,
    "congruences": 4251951589,
}


@pytest.mark.parametrize("name", list(PINNED_ANALYSIS))
def test_analysis_outputs_repeat_their_checksums(name):
    # element ids, names and class order are part of every stage's output:
    # the CLI prints them, and the engines' tables are indexed by them
    assert zlib.crc32(repr(PARTS[name]()).encode()) == PINNED_ANALYSIS[name]
