"""Prefix evaluation on one VebMap.

For a monoid whose non-neutral elements multiply as xy = y, a prefix
evaluates to its last non-neutral letter: a labeled predecessor query. The
AND monoid U1 and the last-non-neutral monoid U2 have that shape; any other
semigroup raises NotApplicable, and the k-ary tree answers its prefixes.
"""

from __future__ import annotations

from ..errors import NotApplicable, PositionOutOfRange
from ..veb import VebMap
from .base import Engine


class VebPrefixEngine(Engine):
    """Predecessor-structure prefix engine for monoids with xy = y on the
    non-neutral elements."""

    kind = "veb-prefix"

    def __init__(self, semigroup, word):
        super().__init__(semigroup, word)
        self.one = semigroup.identity
        keys = [i + 1 for i, a in enumerate(self.word) if a != self.one]
        self.map = VebMap.build(max(self.n, 1), keys, [self.word[k - 1] for k in keys])

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
    one, t = semigroup.identity, semigroup.table
    rest = [x for x in range(semigroup.size) if x != one]
    if one is None or any(t[x][y] != y for x in rest for y in rest):
        raise NotApplicable("prefix engine requires a monoid with xy = y on non-neutral x, y")
    return VebPrefixEngine(semigroup, word)
