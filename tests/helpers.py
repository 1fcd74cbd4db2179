"""Shared test utilities: fast fold oracle, gallery-wide engine setup,
small-semigroup enumeration, the Rees matrix product, a reference window
plan search, a decoder and an encoder for the window plans' packed keys, the
route memos' reset, a k-ary tree at a chosen branching factor, the Cayley
DFA of S3, the first-letter DFA, and the L_U1 and L_U2 membership
reductions."""

import itertools

import numpy as np
import pytest

from dynreg.algebra.rees import ZERO
from dynreg.engines import kary, synthesize_window_plan, zg
from dynreg.engines.base import make_naive_engine
from dynreg.engines.windowstats import WindowStatsPlan, _nslots, _slots_of_append
from dynreg.gadgets import MembershipViaPrefix
from dynreg.gallery import u1, u2
from dynreg.syntactic.dfa import Dfa

# The Cayley DFA of S3, accepting the identity: outside Q_SG, and its
# syntactic monoid is a group, so every edit that changes a letter changes
# every node above it in a k-ary tree
S3_DFA = Dfa("ab", [[2, 3], [3, 2], [0, 5], [1, 4], [5, 0], [4, 1]], 0, {0})

# A Q_LZG DFA whose stable semigroup (5 elements, with a zero) is not in ZG
# and whose window plan keys on the first letter; perfbench's corpus pins it
FIRST_LETTER_DFA = Dfa("ab", [[1, 2], [1, 1], [0, 2]], 0, {1})


def membership_l_u1(word):
    """Membership in L_U1 = c*x(a+c)* through the U1 prefix engine."""
    return MembershipViaPrefix(u1(), {"a": "0", "c": "1", "x": "1"}, {"1"}, word)


def membership_l_u2(word):
    """Membership in L_U2 = (a+b+c)*bc*x(a+b+c)* through the U2 prefix engine."""
    return MembershipViaPrefix(u2(), {"a": "a", "b": "b", "c": "1", "x": "1"}, {"b"}, word)


class FoldOracle:
    """Naive left-to-right evaluation, vectorized with pairwise reduction.

    Semantically identical to NaiveEngine (the table is validated associative
    at construction), just fast enough to shadow every query at n = 4096.
    """

    kind = "fold-oracle"

    def __init__(self, semigroup, word):
        self.semigroup = semigroup
        self.table = np.asarray(semigroup.table, dtype=np.int64)
        self.word = np.asarray(word, dtype=np.int64)
        self.n = len(word)

    def update(self, pos, letter):
        self.word[pos] = letter

    def query(self):
        if self.n == 0:
            return None
        cur = self.word
        t = self.table
        while len(cur) > 1:
            odd = None
            if len(cur) % 2:
                odd = cur[-1:]
                cur = cur[:-1]
            cur = t[cur[0::2], cur[1::2]]
            if odd is not None:
                cur = np.concatenate([cur, odd])
        return int(cur[0])


def clear_route_memos():
    """Forget every memoized zg certificate and window plan, so that the
    next build runs both searches."""
    zg._certificate.cache_clear()
    synthesize_window_plan.cache_clear()


def kary_tree_at(semigroup, word, k):
    """make_kary_engine's tree over word with branching factor k in place of
    the one branching derives from the word's length."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kary, "branching", lambda msize, n: k)
        return kary.make_kary_engine(semigroup, word)


def run_differential(s, factory, n, ops, rng, oracle_cls=FoldOracle):
    """ops random (update, query) rounds; returns mismatch count."""
    word = [rng.randrange(s.size) for _ in range(n)]
    eng = factory(s, list(word))
    oracle = oracle_cls(s, list(word))
    mismatches = 0
    if eng.query() != oracle.query():
        mismatches += 1
    for _ in range(ops):
        p = rng.randrange(n)
        a = rng.randrange(s.size)
        eng.update(p, a)
        oracle.update(p, a)
        if eng.query() != oracle.query():
            mismatches += 1
    return mismatches


def exhaustive_small_words(s, factory, max_len):
    """All words up to max_len; every single substitution checked."""
    import itertools

    naive = make_naive_engine
    for n in range(1, max_len + 1):
        for word in itertools.product(range(s.size), repeat=n):
            eng = factory(s, list(word))
            ora = naive(s, list(word))
            if eng.query() != ora.query():
                return (word, None, None)
            for pos in range(n):
                old = word[pos]
                for a in range(s.size):
                    eng.update(pos, a)
                    ora.update(pos, a)
                    if eng.query() != ora.query():
                        return (word, pos, a)
                eng.update(pos, old)
                ora.update(pos, old)
    return None


def semigroup_tables(order):
    """Every associative table on 0..order-1, one per isomorphism class.

    Cells are filled row by row; a partial table is dropped as soon as a
    triple whose four products are filled breaks associativity, and a full
    table is kept only when no relabeling gives a smaller one.
    """
    t = [[None] * order for _ in range(order)]
    cells = list(itertools.product(range(order), repeat=2))
    triples = list(itertools.product(range(order), repeat=3))
    perms = list(itertools.permutations(range(order)))

    def associative_so_far():
        for x, y, z in triples:
            xy, yz = t[x][y], t[y][z]
            if xy is None or yz is None:
                continue
            left, right = t[xy][z], t[x][yz]
            if left is not None and right is not None and left != right:
                return False
        return True

    def canonical():
        for p in perms:
            relabeled = [[None] * order for _ in range(order)]
            for x, y in cells:
                relabeled[p[x]][p[y]] = p[t[x][y]]
            if relabeled < t:
                return False
        return True

    def fill(k):
        if k == len(cells):
            if canonical():
                yield [list(row) for row in t]
            return
        x, y = cells[k]
        for v in range(order):
            t[x][y] = v
            if associative_so_far():
                yield from fill(k + 1)
        t[x][y] = None

    yield from fill(0)


def rees_product(r, a, b):
    """The product of two elements of r's J-class by the Rees matrix rule,
    (i, g, j)(i', g', j') = (i, g P[j][i'] g', j'): None where P[j][i'] is
    ZERO, the product leaving the class."""
    i, g, j = r.coord[a]
    i2, g2, j2 = r.coord[b]
    p = r.matrix[j][i2]
    return None if p is ZERO else r.uncoord[(i, r.g_mul(g, p, g2), j2)]


def reference_window_search(s, first, threshold, period, state_cap, zero_free=True):
    """The window plan search over tuple states, as a reference for
    windowstats._verify_plan: the same layer-by-layer search, cap test and
    conflict rule, with each state a (counts tuple, first letter or None,
    last letter, evaluation) tuple. With zero_free, as _verify_plan, it
    leaves out every state whose word has the zero as a letter or an
    adjacent pair whose product is the zero (windowstats.py, the zero
    rule); without, it searches every state, the oracle for that rule.

    Returns (recovery, states): the recovery table, or None if the key
    fails or more than state_cap states are seen at the start of a layer,
    and the number of states seen when the search stopped.
    """
    plan = WindowStatsPlan(first, threshold, period, _nslots(s))
    cap, recovery = plan.cap, plan.recovery
    t, z = s.table, s.zero if zero_free else None
    seen = set()
    frontier = []
    for a in range(s.size):
        if a == z:
            continue
        counts = [0] * plan.nslots
        for slot in _slots_of_append(s, None, a):
            counts[slot] = 1
        st = (tuple(counts), a if first else None, a, a)
        recovery[st[:3]] = a
        seen.add(st)
        frontier.append(st)
    while frontier:
        if len(seen) > state_cap:
            return None, len(seen)
        nxt = []
        for counts, f, last, ev in frontier:
            for a in range(s.size):
                if z is not None and z in (a, t[last][a]):
                    continue
                c2 = list(counts)
                for slot in _slots_of_append(s, last, a):
                    c2[slot] = cap(c2[slot] + 1)
                ev2 = t[ev][a]
                st = (tuple(c2), f, a, ev2)
                if st in seen:
                    continue
                if recovery.setdefault(st[:3], ev2) != ev2:
                    return None, len(seen)
                seen.add(st)
                nxt.append(st)
        frontier = nxt
    return recovery, len(seen)


def decoded_recovery(plan):
    """The plan's recovery table with each packed key decoded as the
    reference search keys its table: (capped counts tuple, first letter or
    None, last letter)."""
    table = {}
    for key, ev in plan.recovery.items():
        f, key = divmod(key, plan.first_place) if plan.first else (None, key)
        last, code = divmod(key, plan.last_place)
        table[tuple(code // plan.radix**i % plan.radix for i in range(plan.nslots)), f, last] = ev
    return table


def packed_key(plan, counts, f, last):
    """The key in the plan's packed layout of a key as decoded_recovery and
    the reference search give it: capped counts tuple, first letter or None,
    last letter."""
    return plan.pack(counts) + last * plan.last_place + (f or 0) * plan.first_place
