"""Congruences of a finite semigroup and their exhaustive enumeration.

A congruence is kept as its block key, a tuple of sorted blocks ordered by
least element; closures and joins both end by reading it off a union-find.
"""

from __future__ import annotations

from ..errors import InvalidCongruence, TooLarge
from .core import reach

DEFAULT_ENUM_BOUND = 12


class Congruence:
    """A partition of element ids compatible with composition."""

    def __init__(self, blocks):
        blocks = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
        self.blocks = blocks
        self.block_of = {}
        for bid, blk in enumerate(blocks):
            for x in blk:
                if x in self.block_of:
                    raise InvalidCongruence(f"element {x} in two blocks")
                self.block_of[x] = bid

    def key(self):
        return tuple(self.blocks)

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Congruence({self.blocks})"


def is_congruence(s, cong):
    bo = cong.block_of
    if sorted(bo) != list(range(s.size)):
        return False
    for x in range(s.size):
        for y in range(s.size):
            if bo[x] != bo[y]:
                continue
            for z in range(s.size):
                if bo[s.table[z][x]] != bo[s.table[z][y]]:
                    return False
                if bo[s.table[x][z]] != bo[s.table[y][z]]:
                    return False
    return True


def validate_congruence(s, cong):
    if not is_congruence(s, cong):
        raise InvalidCongruence("partition is not compatible with composition")


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        """Merge the classes of x and y; False when they were one already."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def blocks(self):
        """The classes as a block-key tuple: each block sorted, the blocks
        ordered by least element."""
        groups = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return tuple(map(tuple, groups.values()))


def _close(s, pairs):
    """Least congruence containing the given pairs, as a block-key tuple.

    reach walks the pairs that merge two classes; each one's translates
    (zx, zy) and (xz, yz) are merged in turn, and those that merge
    something are walked next."""
    uf = _UnionFind(s.size)
    t = s.table
    n = range(s.size)

    def step(pair):
        x, y = pair
        return [(a, b) for z in n for a, b in ((t[z][x], t[z][y]), (t[x][z], t[y][z]))
                if uf.union(a, b)]

    reach([p for p in pairs if uf.union(*p)], step)
    return uf.blocks()


def _join(s, key_a, key_b):
    uf = _UnionFind(s.size)
    for blk in key_a + key_b:
        for x in blk[1:]:
            uf.union(blk[0], x)
    return uf.blocks()


def enumerate_congruences(s):
    """All congruences, reached from the trivial one by joining with a
    principal congruence.

    Every congruence is the join of the principal congruences of its pairs,
    and the join of two congruences (the transitive closure of their union)
    is again one, so this reaches the whole lattice. A semigroup of more
    than DEFAULT_ENUM_BOUND elements raises TooLarge.
    """
    if s.size > DEFAULT_ENUM_BOUND:
        raise TooLarge(f"size {s.size} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    n = s.size
    principals = sorted({_close(s, [(x, y)]) for x in range(n) for y in range(x + 1, n)})
    trivial = tuple((x,) for x in range(n))
    keys = reach([trivial], lambda a: [_join(s, a, b) for b in principals])
    return [Congruence(k) for k in sorted(keys)]
