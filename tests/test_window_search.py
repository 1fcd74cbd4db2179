"""The window plan search's zero rule (windowstats.py): a word that shows the
stable semigroup's zero, as a letter or as the product of an adjacent pair,
evaluates to the zero, so the search keeps only zero-free states and the
plan's lookup reads every other key as the zero. Checked against the
unpruned tuple search, and on the routes the rule moves: the LJ1 language
and three order-4 classes, which now get a window plan."""

import logging
import random
import time
import zlib

import pytest

from helpers import FIRST_LETTER_DFA, clear_route_memos, packed_key, reference_window_search, semigroup_tables

from dynreg.algebra.core import FiniteSemigroup
from dynreg.engines import make_auto_engine, make_language_engine
from dynreg.engines.dispatch import route
from dynreg.engines.windowstats import _exponent, _verify_plan
from dynreg.gallery import ab_star_semigroup
from dynreg.syntactic import analyze_dfa, analyze_regex

# the stable semigroup of ((abc)(abc))*((acb)(acb))*: 13 elements, aperiodic
# and locally testable, with a zero
LJ1 = ("((abc)(abc))*((acb)(acb))*", "abc")

# states the unpruned reference explores before it gives up; the pruned
# search runs at the full STATE_CAP
REFERENCE_CAP = 5_000

# order-4 classes with a zero and no zg certificate that the zero rule moves
# from kary-downgraded to window
ORDER_4_WINDOW = [
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 2, 3], [0, 1, 3, 2]],
    [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 2, 3], [0, 0, 3, 2]],
    [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 2], [0, 1, 3, 3]],
]


def _oracle_semigroups():
    """(name, semigroup): every class of order <= 3, a*b*'s, the first-letter
    DFA's and LJ1's stable semigroups."""
    out = [(f"order {order} #{i}", FiniteSemigroup(table))
           for order in (1, 2, 3) for i, table in enumerate(semigroup_tables(order))]
    out.append(("ab_star", ab_star_semigroup()))
    out.append(("first letter", analyze_dfa(FIRST_LETTER_DFA)[1].stable))
    out.append(("LJ1", analyze_regex(*LJ1)[1].stable))
    return out


def test_zero_rule_matches_the_unpruned_search():
    # wherever the unpruned search ends below its cap, the pruned search
    # gives the same verdict, and its plan's lookup gives the unpruned
    # evaluation of every key the unpruned search reached, the keys that
    # show the zero included
    outcomes, zero_reads = set(), 0
    for name, s in _oracle_semigroups():
        for first in (False, True):
            for threshold, period in ((1, 1), (s.size + 1, _exponent(s))):
                key = (first, threshold, period)
                plan = _verify_plan(s, *key)
                recovery, states = reference_window_search(
                    s, *key, state_cap=REFERENCE_CAP, zero_free=False)
                if recovery is None and states > REFERENCE_CAP:
                    outcomes.add("cap")
                    continue
                assert (plan is None) == (recovery is None), (name, key)
                outcomes.add("conflict" if plan is None else "plan")
                if plan is None:
                    continue
                assert len(plan.recovery) <= len(recovery), (name, key)
                for k, ev in recovery.items():
                    packed = packed_key(plan, *k)
                    assert plan.evaluation(packed) == ev, (name, key, k)
                    zero_reads += packed not in plan.recovery
    assert outcomes == {"plan", "conflict", "cap"}
    assert zero_reads


def test_lj1_language_builds_a_window_engine_in_under_a_second():
    m, sd, rep = analyze_regex(*LJ1)
    clear_route_memos()
    start = time.perf_counter()
    eng = make_language_engine(m, sd, rep, list("abc" * 20))
    assert time.perf_counter() - start < 1
    assert eng.kind == "language[window]"


@pytest.mark.parametrize("steered", [False, True], ids=["uniform", "member"])
def test_lj1_window_language_matches_membership(steered):
    # uniform words evaluate to the zero after a few letters; prefixes of a
    # member word, each edit undone after its query, keep other answers in
    # play
    m, sd, rep = analyze_regex(*LJ1)
    rng = random.Random(zlib.crc32(f"LJ1 window {steered}".encode()))
    member = list("abcabc" * 20 + "acbacb" * 20)
    assert m.member(member)
    answers = set()
    for n in (0, 1, 5, 12, 60, len(member)):
        word = member[:n] if steered else [rng.choice("abc") for _ in range(n)]
        eng = make_language_engine(m, sd, rep, list(word))
        assert eng.kind == "language[window]"
        assert eng.query() == m.member(word), n
        for _ in range(200 if n else 0):
            p, c = rng.randrange(n), rng.choice("abc")
            eng.update(p, c)
            word[p] = c
            answers.add(got := eng.query())
            assert got == m.member(word), (n, p, c)
            if steered:
                eng.update(p, member[p])
                word[p] = member[p]
                assert eng.query() == m.member(word), (n, p)
    assert answers == ({True, False} if steered else {False})


@pytest.mark.parametrize("table", ORDER_4_WINDOW, ids=lambda t: str(t))
def test_order_4_classes_with_a_zero_route_to_window(table, caplog):
    s = FiniteSemigroup(table)
    assert s.zero is not None
    with caplog.at_level(logging.WARNING):
        assert route(s)[0] == "window"
    assert not caplog.records
    rng = random.Random(zlib.crc32(f"order 4 window {table}".encode()))
    for n in (1, 2, 3, 17):
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = make_auto_engine(s, list(word))
        assert eng.kind == "windowstats"
        assert eng.query() == s.eval_word(word)
        for _ in range(100):
            p, a = rng.randrange(n), rng.randrange(s.size)
            eng.update(p, a)
            word[p] = a
            assert eng.query() == s.eval_word(word), (n, p, a)
