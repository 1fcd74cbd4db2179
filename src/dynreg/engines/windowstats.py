"""Constant-time engine from local statistics, verified at build time.

The engine maintains exact occurrence counters, one per letter value and one
per value of a product of two adjacent letters. A query projects them
through the plan's threshold-plus-period cap, packs them as mixed-radix
digits in the plan search's key layout (WindowStatsPlan.pack), adds the
last letter and, in plans with `first`, the first letter at their places,
and looks the sum up in the recovery table, which is the search's own dict
from key to evaluation.

A substitution changes the slots of at most two positions, so its net change
depends only on the (previous, old, new, next) letters: _slot_delta gives
each slot's net change by the same per-position rule as the bulk count and
the plan search, without the slots whose changes cancel. Updates and queries
are therefore constant time, with word-length-independent step counts.
WindowStatsEngine runs a plan over a word of semigroup elements: auto builds
it where dispatch.route picks window, and it is the reference for the
language engines' window kind (language.WindowLanguageEngine), which runs
every verified plan on its block images itself, the exact counts as fields
of one int.

Whether the key determines the evaluation is decided by exhaustive
reachability over the capped-statistic automaton, carrying the true
evaluation along: if no two reachable states share a key with different
evaluations, the recovery table is exact for every word length. This covers
stable semigroups whose local monoids are in ZG but which are not in ZG
themselves (the counters play the commutative part, the last letter the
definite part, the first letter the reverse-definite part, as the length-1
prefix and suffix of local testability); when every plan fails,
`dispatch.route` picks the k-ary tree instead.

The zero rule. A word that has the zero z as a letter, or an adjacent pair
whose product is z, evaluates to z, and a slot's capped digit is above 0
exactly when its count is; so a key with z's letter slot or z's pair slot
nonzero is the key of words that all evaluate to z, and takes part in no
conflict. Every successor of such a key shows z too, and a key without z
is reached only through keys without z. The search therefore keeps only the
zero-free states, and WindowStatsPlan.evaluation reads a key that is not in
the recovery table as z. A semigroup with no zero keeps a total table.
"""

from __future__ import annotations

from math import lcm
from operator import mul

import numpy as np

from ..algebra.core import table_array
from ..errors import NoWindowPlan
from ..memo import memo
from .base import Engine

STATE_CAP = 300_000  # zero-free reachable states explored before a plan gives up


class WindowStatsPlan:
    """A key is one int: the capped count of slot i as a digit at radix**i,
    radix = threshold + period, then the last letter at last_place, then,
    in plans with `first`, the first letter at first_place (0 otherwise).
    The recovery table holds the zero-free keys; evaluation(key) is the one
    lookup of a key."""

    def __init__(self, first, threshold, period, nslots, zero=None):
        self.first = first  # whether the first letter joins the recovery key
        self.zero = zero  # the semigroup's zero, the evaluation of every key not in recovery
        self.threshold = threshold
        self.period = period
        self.nslots = nslots
        self.radix = radix = threshold + period
        self.places = [radix**i for i in range(nslots)]  # slot i's digit place
        self.last_place = radix**nslots
        # above the last letter, one of the nslots // 2 letters (see _nslots)
        self.first_place = self.last_place * (nslots // 2) if first else 0
        self.recovery = {}  # zero-free key -> element

        def cap(c):
            return c if c < threshold else threshold + (c - threshold) % period

        self.cap = cap

    def pack(self, counts):
        """The key of exact slot counts, letters aside: each capped count at its place."""
        return sum(map(mul, map(self.cap, counts), self.places))

    def evaluation(self, key):
        """The evaluation of every word with this key: its recovery entry,
        else the zero (a key the search did not keep shows the zero). With
        no zero the table is total, and a missing key raises KeyError."""
        if self.zero is None:
            return self.recovery[key]
        return self.recovery.get(key, self.zero)


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
    """(slot, net change) pairs when the letter between prev and nxt (None
    past an end of the word) goes from old to new, without the slots that
    cancel: the slots _slots_of_append gives its own position and the next
    one."""
    net = {}
    for sign, a in ((-1, old), (1, new)):
        slots = _slots_of_append(s, prev, a)
        if nxt is not None:
            slots += _slots_of_append(s, a, nxt)
        for slot in slots:
            net[slot] = net.get(slot, 0) + sign
    return [(slot, d) for slot, d in net.items() if d]


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
    """The plan for one key if reachability proves it exact, else None.

    Breadth-first search, one layer at a time, over the zero-free states
    (capped counts, first letter, last letter, evaluation) of all nonempty
    words, giving up at the start of a layer once more than STATE_CAP
    states are seen. The plan fails as soon as two reachable states share a
    key (capped counts, first letter, last letter) but not an evaluation.
    A state is zero-free when its word has neither the zero as a letter nor
    an adjacent pair whose product is the zero (the module's zero rule): the
    seeds leave the zero out, and moves[last] leaves out every letter a that
    is the zero or whose product with last is.

    Each key is one int in the plan's layout (see WindowStatsPlan). Until
    the plan fails a key has one evaluation, so `seen`, a dict from key to
    evaluation, holds each state once, and becomes the plan's recovery
    table. A letter a adds bump[slot][digit], the change from the digit to
    the cap of its successor at the slot's place, for its own slot and for
    the pair slot size + t[last][a].
    """
    z = s.zero
    plan = WindowStatsPlan(first, threshold, period, _nslots(s), z)
    size, nslots, cap, t = s.size, plan.nslots, plan.cap, s.table
    radix, last_place, first_place, place = plan.radix, plan.last_place, plan.first_place, plan.places
    bump = [[(cap(d + 1) - d) * p for d in range(radix)] for p in place]
    # moves[last]: (a, then the place and bumps of a's slot and of the pair
    # slot, a as last letter) for each letter a that keeps the word zero-free
    moves = [[(a, place[a], bump[a], place[size + x], bump[size + x], a * last_place)
              for a, x in enumerate(row) if a != z and x != z] for row in t]
    seen = {}  # key -> evaluation
    frontier = []
    for a in range(size):
        if a != z:
            key = place[a] + a * last_place + a * first_place
            seen[key] = a
            frontier.append(key)
    get = seen.get
    while frontier:
        if len(seen) > STATE_CAP:
            return None
        nxt = []
        for key in frontier:
            row = t[seen[key]]
            last = key // last_place % size
            key -= last * last_place
            # key // place % radix is a count digit: first_place is a multiple of radix * place
            for a, pa, ba, pp, bp, la in moves[last]:
                key2 = key + ba[key // pa % radix] + bp[key // pp % radix] + la
                ev = row[a]
                old = get(key2)
                if old is None:
                    seen[key2] = ev
                    nxt.append(key2)
                elif old != ev:
                    return None
        frontier = nxt
    plan.recovery = seen
    return plan


class WindowStatsEngine(Engine):
    kind = "windowstats"

    def __init__(self, semigroup, word, plan):
        super().__init__(semigroup, word)
        self.plan = plan
        letters = word if isinstance(word, np.ndarray) else self.word
        self.counts = _word_counts(semigroup, letters, plan.nslots)

    def update(self, pos, letter):
        self._check(pos, letter)
        self._steps += 4
        word, counts = self.word, self.counts
        prev = word[pos - 1] if pos else None
        nxt = word[pos + 1] if pos + 1 < self.n else None
        for slot, d in _slot_delta(self.semigroup, prev, word[pos], letter, nxt):
            counts[slot] += d
        word[pos] = letter

    def query(self):
        if not self.n:
            return None
        plan, word = self.plan, self.word
        self._steps += plan.nslots + 1
        return plan.evaluation(plan.pack(self.counts) + word[-1] * plan.last_place + word[0] * plan.first_place)


def make_windowstats_engine(semigroup, word):
    plan = synthesize_window_plan(semigroup)
    if plan is None:
        raise NoWindowPlan("no verified statistics plan for this semigroup")
    return WindowStatsEngine(semigroup, word, plan)
