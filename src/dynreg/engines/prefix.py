"""Prefix-evaluation engines.

For the AND monoid the prefix problem is a threshold query on the set of zero
positions; for the last-non-neutral monoid it is a labeled predecessor query.
Both ride on one VebMap. Everything else routes to the k-ary tree, whose
prefix query is the general-purpose answer.
"""

from __future__ import annotations

from ..errors import PositionOutOfRange
from ..veb import VebMap
from .base import Engine
from .kary import KaryEngine


def _u1_shape(s):
    """id pair (one, zero) if s is the AND monoid, else None."""
    if s.size == 2 and s.identity is not None and s.zero is not None:
        return s.identity, s.zero
    return None


def _u2_shape(s):
    """(one, (a, b)) if s is {1,a,b} with xy = y on non-neutral, else None."""
    if s.size != 3 or s.identity is None:
        return None
    rest = [x for x in range(3) if x != s.identity]
    a, b = rest
    ok = all(s.table[x][y] == y for x in rest for y in rest)
    return (s.identity, (a, b)) if ok else None


class VebPrefixEngine(Engine):
    """Predecessor-structure prefix engine for the U1/U2 shapes."""

    kind = "veb-prefix"

    def __init__(self, semigroup, word):
        super().__init__(semigroup, word)
        self.one = semigroup.identity
        self.map = VebMap(max(self.n, 1))
        for i, a in enumerate(self.word):
            if a != self.one:
                self.map.insert(i + 1, a)

    def update(self, pos, letter):
        self._check(pos, letter)
        old = self.word[pos]
        self.word[pos] = letter
        self._steps += 1
        if old != self.one:
            self.map.delete(pos + 1)
        if letter != self.one:
            self.map.insert(pos + 1, letter)

    def prefix(self, length):
        if not (0 <= length <= self.n):
            raise PositionOutOfRange(f"prefix length {length} outside 0..{self.n}")
        self._steps += 1
        if length == 0:
            return self.one
        k = self.map.find_prev(length)
        return self.one if k is None else self.map.retrieve(k)

    def query(self):
        if self.n == 0:
            return None
        return self.prefix(self.n)

    def _parts(self):
        return (self.map,)


def make_prefix_engine(semigroup, word):
    """Prefix engine: vEB-backed for the U1/U2 shapes, k-ary otherwise."""
    if _u1_shape(semigroup) is not None or _u2_shape(semigroup) is not None:
        return VebPrefixEngine(semigroup, word)
    return KaryEngine(semigroup, word)
