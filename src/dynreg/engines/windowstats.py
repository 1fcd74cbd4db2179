"""Constant-time engine from local statistics, verified at build time.

The engine maintains exact occurrence counters, one per letter value and one
per value of a product of two adjacent letters, and next to them the same
counters projected through a threshold-plus-period cap. A query looks up the
capped counts, the last letter and, in plans with `first`, the first letter
in a recovery table.

A substitution changes the slots of at most two positions, so its net change
depends only on the (previous, old, new, next) letters. The plan builds that
table lazily, from the same per-position rule as the bulk count and the plan
search, and drops slots whose changes cancel; an update rewrites only the
count and the capped value of each slot left. Updates and queries are
therefore constant time, with word-length-independent step counts.

Whether the key determines the evaluation is decided by exhaustive
reachability over the capped-statistic automaton, carrying the true
evaluation along: if no two reachable states share a key with different
evaluations, the recovery table is total and the engine is exact for every
word length. This covers stable semigroups whose local monoids are in ZG but
which are not in ZG themselves (the counters play the commutative part, the
last letter the definite part, the first letter the reverse-definite part,
as the length-1 prefix and suffix of local testability); when every plan
fails, callers fall back to the vEB engine.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from ..algebra.core import table_array
from ..errors import NoWindowPlan
from ..memo import memo
from .base import Engine

STATE_CAP = 300_000  # reachable states explored before a plan gives up


class WindowStatsPlan:
    def __init__(self, first, threshold, period, nslots):
        self.first = first  # whether the first letter joins the recovery key
        self.threshold = threshold
        self.period = period
        self.nslots = nslots
        self.recovery = {}  # (capped counts, first letter or None, last letter) -> element
        self.deltas = {}  # (prev, old, new, next) -> ((slot, net change), ...), filled lazily

        def cap(c):
            return c if c < threshold else threshold + (c - threshold) % period

        self.cap = cap


def _exponent(s):
    """lcm of the cycle lengths of all elements."""
    return lcm(*(s.omega_data(x).period for x in range(s.size)))


def _slots_of_append(s, last, a):
    """Counter slots incremented when letter a follows a word ending in last:
    the letter's own, and the adjacent pair's product unless a starts the word."""
    if last is None:
        return (a,)
    return (a, s.size + s.table[last][a])


def _slot_delta(s, prev, old, new, nxt):
    """Net slot changes when the letter between prev and nxt (None past an
    end of the word) goes from old to new, without the slots that cancel:
    the slots _slots_of_append gives its own position and the next one."""
    net = {}
    for sign, a in ((-1, old), (1, new)):
        slots = _slots_of_append(s, prev, a)
        if nxt is not None:
            slots += _slots_of_append(s, a, nxt)
        for slot in slots:
            net[slot] = net.get(slot, 0) + sign
    return tuple((slot, d) for slot, d in net.items() if d)


def _word_counts(s, word, nslots):
    """Slot counts of a whole word: the slots that _slots_of_append gives
    each position, for all positions at once, counted by one np.add.at.

    The slot ids take the narrowest dtype that holds nslots; add.at reads
    them as they are, where np.bincount would first copy them to 64-bit ids.
    """
    dtype = np.min_scalar_type(nslots - 1)
    w = np.array(word, dtype=dtype)
    slots = np.concatenate([w, s.size + table_array(s)[w[:-1], w[1:]].astype(dtype)])
    counts = np.zeros(nslots, dtype=np.int64)
    np.add.at(counts, slots, 1)
    return counts.tolist()


def _nslots(s):
    return 2 * s.size


@memo
def synthesize_window_plan(s):
    """Search for a verified plan; None if every plan fails.

    The key without the first letter is tried before the key with it, which
    multiplies the reachable states by up to |S|. Each key is tried first
    with presence bits (threshold 1, period 1), then with counts capped at
    |S| + 1 modulo the exponent.
    """
    exp = _exponent(s)
    for first in (False, True):
        for threshold, period in ((1, 1), (s.size + 1, exp)):
            plan = _verify_plan(s, first, threshold, period)
            if plan is not None:
                return plan
    return None


def _verify_plan(s, first, threshold, period):
    plan = WindowStatsPlan(first, threshold, period, _nslots(s))
    cap, recovery = plan.cap, plan.recovery
    seen = set()
    frontier = []
    for a in range(s.size):
        counts = [0] * plan.nslots
        for slot in _slots_of_append(s, None, a):
            counts[slot] = 1
        st = (tuple(counts), a if first else None, a, a)
        recovery[st[:3]] = a
        seen.add(st)
        frontier.append(st)
    t = s.table
    while frontier:
        if len(seen) > STATE_CAP:
            return None
        nxt = []
        for counts, f, last, ev in frontier:
            for a in range(s.size):
                c2 = list(counts)
                for slot in _slots_of_append(s, last, a):
                    c2[slot] = cap(c2[slot] + 1)
                ev2 = t[ev][a]
                st = (tuple(c2), f, a, ev2)
                if st in seen:
                    continue
                if recovery.setdefault(st[:3], ev2) != ev2:
                    return None
                seen.add(st)
                nxt.append(st)
        frontier = nxt
    return plan


class WindowStatsEngine(Engine):
    kind = "windowstats"

    def __init__(self, semigroup, word, plan):
        super().__init__(semigroup, word)
        self.plan = plan
        letters = word if isinstance(word, np.ndarray) else self.word
        self.counts = _word_counts(semigroup, letters, plan.nslots)
        self.capped = [plan.cap(c) for c in self.counts]

    def update(self, pos, letter):
        self._check(pos, letter)
        self._steps += 4
        word, plan = self.word, self.plan
        key = (word[pos - 1] if pos else None, word[pos], letter,
               word[pos + 1] if pos + 1 < self.n else None)
        delta = plan.deltas.get(key)
        if delta is None:
            delta = plan.deltas[key] = _slot_delta(self.semigroup, *key)
        counts, capped, cap = self.counts, self.capped, plan.cap
        for slot, d in delta:
            c = counts[slot] + d
            counts[slot] = c
            capped[slot] = cap(c)
        word[pos] = letter

    def query(self):
        if not self.n:
            return None
        plan = self.plan
        self._steps += plan.nslots + 1
        first = self.word[0] if plan.first else None
        return plan.recovery[(tuple(self.capped), first, self.word[-1])]


def make_windowstats_engine(semigroup, word):
    plan = synthesize_window_plan(semigroup)
    if plan is None:
        raise NoWindowPlan("no verified statistics plan for this semigroup")
    return WindowStatsEngine(semigroup, word, plan)
