"""Congruences of a finite semigroup and their exhaustive enumeration."""

from __future__ import annotations

from ..errors import InvalidCongruence, TooLarge

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
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _close(s, pairs):
    """Least congruence containing the given pairs, as a block-key tuple."""
    uf = _UnionFind(s.size)
    queue = []
    for x, y in pairs:
        if uf.union(x, y):
            queue.append((x, y))
    t = s.table
    n = s.size
    while queue:
        x, y = queue.pop()
        for z in range(n):
            for a, b in ((t[z][x], t[z][y]), (t[x][z], t[y][z])):
                ra, rb = uf.find(a), uf.find(b)
                if ra != rb:
                    uf.union(ra, rb)
                    queue.append((ra, rb))
    groups = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(x)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))


def enumerate_congruences(s):
    """All congruences, as joins of principal congruences.

    The join of two congruences is the transitive closure of their union,
    which is again a congruence, so closing the principal congruences under
    pairwise join yields the full lattice. A semigroup of more than
    DEFAULT_ENUM_BOUND elements raises TooLarge.
    """
    if s.size > DEFAULT_ENUM_BOUND:
        raise TooLarge(f"size {s.size} exceeds enumeration bound {DEFAULT_ENUM_BOUND}")
    trivial = tuple((x,) for x in range(s.size))
    keys = {trivial}
    principals = set()
    for x in range(s.size):
        for y in range(x + 1, s.size):
            principals.add(_close(s, [(x, y)]))
    keys |= principals
    frontier = list(principals)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(keys):
                j = _join(s, a, b)
                if j not in keys:
                    keys.add(j)
                    nxt.append(j)
        frontier = nxt
    return [Congruence(k) for k in sorted(keys)]


def _join(s, key_a, key_b):
    pairs = []
    for blk in key_a + key_b:
        pairs.extend((blk[0], x) for x in blk[1:])
    uf = _UnionFind(s.size)
    for x, y in pairs:
        uf.union(x, y)
    groups = {}
    for x in range(s.size):
        groups.setdefault(uf.find(x), []).append(x)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))
