"""One ladder for semigroup words and languages alike: a word over S is a
word of the language over the alphabet S with eta the identity into S^1, so
auto on S and that language's engine fall in one cost class. Checked over
the gallery and every semigroup of order <= 3, with auto's kinds pinned per
order and its answers checked against the naive fold."""

import collections
import random
import zlib

import pytest

from helpers import semigroup_tables

from dynreg.algebra.core import FiniteSemigroup, adjoin_identity
from dynreg.engines import make_auto_engine, make_language_engine
from dynreg.syntactic import Morphism, classify_language, stable_data

# each kind's cost class; a language kind is classed by the tag in its brackets
COST_CLASS = {
    **dict.fromkeys(("count", "nilpotent", "zg", "windowstats", "window"), "constant"),
    "kary": "kary",
    "kary-downgraded": "kary-downgraded",
}

# auto's kinds over the semigroups of each order, one per isomorphism class
AUTO_TALLY = {
    1: {"count": 1},
    2: {"count": 3, "windowstats": 2},
    3: {"count": 12, "windowstats": 10, "kary": 2},
}


def _cost_class(kind):
    return COST_CLASS[kind.removeprefix("language[").removesuffix("]")]


def _identity_language_kind(s):
    """The kind make_language_engine builds for the language of S's words
    through the identity morphism into S^1, one letter per element."""
    letters = [str(x) for x in range(s.size)]
    m = Morphism(adjoin_identity(s), dict(zip(letters, range(s.size))), {0}, letters)
    sd = stable_data(m)
    return make_language_engine(m, sd, classify_language(m, sd), letters[:1]).kind


@pytest.fixture(scope="module")
def small():
    """(order, index) -> each semigroup of order <= 3, up to isomorphism."""
    return {(order, i): FiniteSemigroup(table)
            for order in AUTO_TALLY for i, table in enumerate(semigroup_tables(order))}


def test_auto_and_the_identity_language_fall_in_one_cost_class(gal, small):
    differ = []
    for name, s in [*sorted(gal.items()), *small.items()]:
        auto, language = make_auto_engine(s, [0]).kind, _identity_language_kind(s)
        if _cost_class(auto) != _cost_class(language):
            differ.append((name, auto, language))
    assert differ == []


def test_auto_kinds_per_order_and_answers(small):
    tally = collections.defaultdict(collections.Counter)
    for (order, i), s in small.items():
        rng = random.Random(zlib.crc32(f"auto {order} {i}".encode()))
        for n in (1, 2, 9):
            word = [rng.randrange(s.size) for _ in range(n)]
            eng = make_auto_engine(s, list(word))
            for _ in range(20):
                assert eng.query() == s.eval_word(word), (order, i, eng.kind, word)
                p, a = rng.randrange(n), rng.randrange(s.size)
                eng.update(p, a)
                word[p] = a
        tally[order][eng.kind] += 1
    assert tally == AUTO_TALLY
