"""Constant-time engine from local statistics, verified at build time.

The engine maintains exact occurrence counters for a family of local features
of the word plus its last letter, and answers queries by projecting the
counters through a threshold-plus-period cap and consulting a recovery table.
A substitution touches O(1) features, so updates and queries are constant
time with word-length-independent step counts.

Feature families, tried in order:

  pairs     one counter per letter value and one per value of a product of
            two adjacent letters
  windows   one counter per (context, letter) pair, the context being the
            previous letter or the word start

Whether the statistic determines the evaluation is decided by exhaustive
reachability over the capped-statistic automaton, carrying the true
evaluation along: if no two reachable states share (capped counters, last
letter) with different evaluations, the recovery table is total and the
engine is exact for every word length. This covers stable semigroups whose
local monoids are in ZG but which are not in ZG themselves (the counters
play the commutative part, the last letter the definite part); when every
tier fails, callers fall back to the vEB engine.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from ..algebra.core import table_array
from ..errors import NoWindowPlan
from ..memo import memo
from .base import Engine

TIERS = ("pairs", "windows")  # feature families, in the order tried
STATE_CAP = 300_000  # reachable states explored before a tier gives up


class WindowStatsPlan:
    def __init__(self, stat_kind, threshold, period, nslots):
        self.stat_kind = stat_kind
        self.threshold = threshold
        self.period = period
        self.nslots = nslots
        self.recovery = {}  # (capped counts, last letter) -> element

        def cap(c):
            return c if c < threshold else threshold + (c - threshold) % period

        self.cap = cap


def _exponent(s):
    """lcm of the cycle lengths of all elements."""
    return lcm(*(s.omega_data(x).period for x in range(s.size)))


def _slots_of_append(s, kind, last, a):
    """Feature slots incremented when letter a follows a word ending in last."""
    if kind == "pairs":
        slots = [a]
        if last is not None:
            slots.append(s.size + s.table[last][a])
        return slots
    # windows: context is the previous letter, or the word start
    ctx = s.size if last is None else last
    return [ctx * s.size + a]


def _word_counts(s, kind, word, nslots):
    """Slot counts of a whole word: the slots that _slots_of_append gives
    each position, for all positions at once, counted by one np.add.at.

    The slot ids take the narrowest dtype that holds nslots; add.at reads
    them as they are, where np.bincount would first copy them to 64-bit ids.
    """
    dtype = np.min_scalar_type(nslots - 1)
    w = np.array(word, dtype=dtype)
    if kind == "pairs":
        slots = np.concatenate([w, s.size + table_array(s)[w[:-1], w[1:]].astype(dtype)])
    else:  # windows: the context of the first letter is the word start
        ctx = np.full(len(w), s.size, dtype=dtype)
        ctx[1:] = w[:-1]
        slots = ctx * s.size + w
    counts = np.zeros(nslots, dtype=np.int64)
    np.add.at(counts, slots, 1)
    return counts.tolist()


def _nslots(s, kind):
    return 2 * s.size if kind == "pairs" else (s.size + 1) * s.size


@memo
def synthesize_window_plan(s):
    """Search the tier ladder for a verified plan; None if all tiers fail.

    Each statistic in TIERS is tried first as presence bits (threshold 1,
    period 1), then as counts capped at |S| + 1 modulo the exponent.
    """
    exp = _exponent(s)
    for kind in TIERS:
        for threshold, period in ((1, 1), (s.size + 1, exp)):
            plan = _verify_tier(s, kind, threshold, period)
            if plan is not None:
                return plan
    return None


def _verify_tier(s, kind, threshold, period):
    plan = WindowStatsPlan(kind, threshold, period, _nslots(s, kind))
    cap, recovery, nslots = plan.cap, plan.recovery, plan.nslots
    seen = set()
    frontier = []
    for a in range(s.size):
        counts = [0] * nslots
        for slot in _slots_of_append(s, kind, None, a):
            counts[slot] = cap(counts[slot] + 1)
        st = (tuple(counts), a, a)
        recovery[(st[0], a)] = a
        seen.add(st)
        frontier.append(st)
    t = s.table
    while frontier:
        if len(seen) > STATE_CAP:
            return None
        nxt = []
        for counts, last, ev in frontier:
            for a in range(s.size):
                c2 = list(counts)
                for slot in _slots_of_append(s, kind, last, a):
                    c2[slot] = cap(c2[slot] + 1)
                ev2 = t[ev][a]
                st = (tuple(c2), a, ev2)
                if st in seen:
                    continue
                key = (st[0], a)
                if key in recovery:
                    if recovery[key] != ev2:
                        return None
                else:
                    recovery[key] = ev2
                seen.add(st)
                nxt.append(st)
        frontier = nxt
    return plan


class WindowStatsEngine(Engine):
    kind = "windowstats"

    def __init__(self, semigroup, word, plan):
        super().__init__(semigroup, word)
        self.plan = plan
        self.counts = _word_counts(semigroup, plan.stat_kind, self.word, plan.nslots)

    def _slots(self, i):
        last = self.word[i - 1] if i > 0 else None
        return _slots_of_append(self.semigroup, self.plan.stat_kind, last, self.word[i])

    def update(self, pos, letter):
        self._check(pos, letter)
        self._steps += 4
        hi = min(pos + 1, self.n - 1)
        for j in range(pos, hi + 1):
            for slot in self._slots(j):
                self.counts[slot] -= 1
        self.word[pos] = letter
        for j in range(pos, hi + 1):
            for slot in self._slots(j):
                self.counts[slot] += 1

    def query(self):
        if self.n == 0:
            return None
        plan = self.plan
        self._steps += plan.nslots + 1
        capped = tuple(plan.cap(c) for c in self.counts)
        return plan.recovery[(capped, self.word[-1])]


def make_windowstats_engine(semigroup, word):
    plan = synthesize_window_plan(semigroup)
    if plan is None:
        raise NoWindowPlan("no verified statistics plan for this semigroup")
    return WindowStatsEngine(semigroup, word, plan)
