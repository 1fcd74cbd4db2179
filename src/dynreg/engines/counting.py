"""Constant-time engines: occurrence counting and nilpotent position lists."""

from __future__ import annotations

from ..algebra.core import restriction
from ..algebra.varieties import check_variety, nilpotency_degree
from ..errors import NotCommutative, NotNilPlusOne
from .base import Engine


class CountEngine(Engine):
    """Commutative monoids: track occurrence counts, evaluate by power tables."""

    kind = "count"

    def __init__(self, semigroup, word):
        if not check_variety(semigroup, "COM"):
            raise NotCommutative("count engine requires a commutative semigroup")
        super().__init__(semigroup, word)
        self.counts = [0] * semigroup.size
        for a in self.word:
            self.counts[a] += 1
        # powers[x][i] = x^i for 1 <= i < index + period: the powers of x
        # up to the first repeat; higher powers cycle with the period
        self.powers = []
        self.periods = [semigroup.omega_data(x).period for x in range(semigroup.size)]
        t = semigroup.table
        for x, p in enumerate(self.periods):
            row = [None, x]
            while len(row) <= p or t[row[-1]][x] != row[-p]:
                row.append(t[row[-1]][x])
            self.powers.append(row)

    def update(self, pos, letter):
        self._check(pos, letter)
        self._steps += 2
        self.counts[self.word[pos]] -= 1
        self.counts[letter] += 1
        self.word[pos] = letter

    def query(self):
        self._steps += self.semigroup.size
        acc = None
        t = self.semigroup.table
        for x, c in enumerate(self.counts):
            if c:
                row = self.powers[x]
                if c >= len(row):
                    p = self.periods[x]
                    c = len(row) - p + (c - len(row)) % p
                y = row[c]
                acc = y if acc is None else t[acc][y]
        return acc


class NilpotentEngine(Engine):
    """Monoids S^1 with S nilpotent: an unsorted doubly-linked list of the
    non-neutral positions decides everything in O(1)."""

    kind = "nilpotent"

    def __init__(self, semigroup, word):
        if not check_variety(semigroup, "NIL_PLUS_ONE"):
            raise NotNilPlusOne("engine requires S^1 with S nilpotent")
        super().__init__(semigroup, word)
        self.one = semigroup.identity
        self.zero = semigroup.zero
        rest = [x for x in range(semigroup.size) if x != self.one]
        sub, _ = restriction(semigroup, rest)
        self.degree = nilpotency_degree(sub)
        # unsorted doubly-linked list over positions, table pos -> membership
        self.nxt = [-1] * (self.n + 1)
        self.prv = [-1] * (self.n + 1)
        self.head = -1
        self.count = 0
        for i, a in enumerate(self.word):
            if a != self.one:
                self._link(i)

    def _link(self, i):
        self.nxt[i] = self.head
        self.prv[i] = -1
        if self.head >= 0:
            self.prv[self.head] = i
        self.head = i
        self.count += 1

    def _unlink(self, i):
        p, nx = self.prv[i], self.nxt[i]
        if p >= 0:
            self.nxt[p] = nx
        else:
            self.head = nx
        if nx >= 0:
            self.prv[nx] = p
        self.count -= 1

    def update(self, pos, letter):
        self._check(pos, letter)
        self._steps += 3
        old = self.word[pos]
        self.word[pos] = letter
        was = old != self.one
        now = letter != self.one
        if was and not now:
            self._unlink(pos)
        elif now and not was:
            self._link(pos)

    def query(self):
        self._steps += self.degree
        if self.n == 0:
            return None
        if self.count >= self.degree:
            return self.zero
        if self.count == 0:
            return self.one
        positions = []
        i = self.head
        while i >= 0:
            positions.append(i)
            i = self.nxt[i]
        positions.sort()
        t = self.semigroup.table
        acc = self.word[positions[0]]
        for p in positions[1:]:
            acc = t[acc][self.word[p]]
        return acc
