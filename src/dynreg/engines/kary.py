"""k-ary tree of packed codes, branching k ~ log n, one flat list per level.

Level 1 holds, for each run of k consecutive leaves, their packed base-|M|
code; level l + 1 holds the codes of k consecutive level-l values, and the top
level holds a single code. Every level is padded to a multiple of k with the
adjoined identity, so every node has exactly k digits and one table serves
all of them: value[code], the product of the k digits, which every tree
builds (_tables). Only prefix and infix read inf[code*k*k + i*k + j], the
product of digits i..j; it is built on a tree's first such query (_infixes),
so language engines never build it. Both are memoized per (monoid, k). An
update climbs from the leaf carrying the child's old and new values: at each
level it adds their difference at the child's digit, reads the node's old
and new values, and stops at the first node whose value is unchanged, since
the digit above it is then unchanged too. It charges one step per level it
rewrites and, where it stops below the top, one for the level above, the
read of that unchanged digit; a query reads the top code.

The branching factor is the largest k >= 2 whose tables, |M|^k * k^2 cells,
are no larger than the word, and below n.bit_length(): that cap only binds
for a one-element monoid, whose tables never grow with k. Tiny n degrade to a
binary tree, and the height is ceil(log_k n) (one level when n = 1). The
level lists share one int object per code, since codes above 256 are not
CPython's cached small ints, and update stores the shared object of the new
code, so edits do not grow the lists' memory.

plant plants both trees, this one and the language engine's (language.py,
whose leaves are the values of blocks of letters): it sets k, the digit
places, the tables and the levels. Its build_levels reads the leaves in the
narrowest dtype that holds every id, the adjoined identity included: a level
is padded in that dtype, and its codes are built digit column by digit
column (Horner's rule, in place) in one int64 array of one entry per node,
so the build makes no full-length int64 copy of the leaves. The two climbs
stay inline in each update: with one shared climb function edit-kary ran
about 4 % fewer edits per second, in alternating benchmark pairs on a
2-vCPU Xeon under CPython 3.11.7.

KaryEngine's letters are the caller's ids: update checks them by
Engine._check, so a float, 1.0 too, raises RangeError before any state
changes, and stores a numpy integer as the int it equals.
"""

from __future__ import annotations

from functools import cached_property
from operator import index

import numpy as np

from ..algebra.core import adjoin_identity, table_array
from ..errors import PositionOutOfRange
from ..memo import memo
from .base import Engine


def branching(msize, n):
    """The largest k >= 2 with msize^k * k^2 <= n and k < n.bit_length().

    The first bound keeps the tables linear in the word; the second keeps k
    near log2 n where the first never binds (msize = 1).
    """
    k = 2
    while msize ** (k + 1) * (k + 1) ** 2 <= n and k + 1 < n.bit_length():
        k += 1
    return k


@memo
def _tables(monoid, k):
    """The tables every tree over monoid with k-digit codes shares: value,
    value[code] the product of the k digits of code, digit i at place b**i
    the i-th from the left, as a list and as an array of the narrowest dtype
    that holds the ids; and one int object per code, as an object array and
    as a list, which the levels reference instead of fresh ints.

    Memoized per (table, k), so every tree over the same monoid shares them.
    """
    b = monoid.size
    t = table_array(monoid)
    codes = np.arange(b**k)
    value = codes % b
    for i in range(1, k):
        value = t[value, codes // b**i % b]
    shared = codes.astype(object)
    return value.tolist(), value, shared, shared.tolist()


@memo
def _infixes(monoid, k):
    """inf[code*k*k + i*k + j], the product of digits i..j of code (i <= j);
    built on a tree's first prefix or infix query, memoized as _tables."""
    b = monoid.size
    t = np.asarray(monoid.table, dtype=np.int64)
    codes = np.arange(b**k, dtype=np.int64)
    digits = [codes // b**i % b for i in range(k)]
    inf = np.zeros((b**k, k, k), dtype=np.int64)
    for i in range(k):
        acc = digits[i]
        inf[:, i, i] = acc
        for j in range(i + 1, k):
            acc = t[acc, digits[j]]
            inf[:, i, j] = acc
    return inf.ravel().tolist()


def build_levels(monoid, k, vals):
    """The levels of the k-ary tree over the leaf ids vals (a numpy array of
    monoid, which has an identity): level 0 packs the leaves and the last
    level is the single top code, or there are no levels for no leaves.
    Lists, not arrays: the per-edit loop indexes scalars."""
    b = monoid.size
    _, value, shared, _ = _tables(monoid, k)
    levels = []
    # every level's digits in the narrowest dtype that holds the ids
    vals = np.asarray(vals, dtype=value.dtype)
    while len(vals):
        pad = -len(vals) % k
        if pad:
            vals = np.concatenate([vals, np.full(pad, monoid.identity, dtype=vals.dtype)])
        # Horner's rule over the digit columns, last digit first, in place
        digits = vals.reshape(-1, k)
        codes = digits[:, k - 1].astype(np.int64)
        for i in range(k - 2, -1, -1):
            codes *= b
            codes += digits[:, i]
        levels.append(shared[codes].tolist())
        if len(codes) == 1:
            break
        vals = value[codes]
    return levels


def plant(tree, monoid, leaves, n):
    """Set tree's k, _pow, value, _shared and levels: the k-ary tree over
    the leaf ids leaves of monoid (which has an identity), its branching
    chosen for n letters. Both trees plant themselves here; each keeps its
    own climb (module docstring)."""
    tree.k = k = branching(monoid.size, max(n, 1))
    b = monoid.size
    tree._pow = [b**i for i in range(k)]
    # update stores the shared code objects, not fresh ints
    tree.value, _, _, tree._shared = _tables(monoid, k)
    tree.levels = build_levels(monoid, k, leaves)


def stop_charge(levels, codes):
    """The charge of a climb that stops at the level codes, the first whose
    node keeps its value: one per level rewritten, and, below the top, one
    for the level above, whose digit is read unchanged. Searched for only
    where a climb stops (the levels' lengths differ, so the search compares
    no codes), which is cheaper than counting every level climbed."""
    return min(levels.index(codes) + 2, len(levels))


class KaryEngine(Engine):
    kind = "kary"

    def __init__(self, monoid, word):
        super().__init__(monoid, word)
        self.identity = monoid.identity  # the caller's, None if it has none
        self.semigroup = monoid = adjoin_identity(monoid)
        plant(self, monoid, word if isinstance(word, np.ndarray) else self.word, self.n)

    @cached_property
    def inf(self):
        return _infixes(self.semigroup, self.k)

    def update(self, pos, letter):
        self._check(pos, letter)
        word = self.word
        old = word[pos]
        v = word[pos] = index(letter)
        if old == v:  # the bottom level's read of the unchanged digit
            self._steps += 1
            return
        k, pw, value, shared, levels = self.k, self._pow, self.value, self._shared, self.levels
        j = pos
        for codes in levels:
            d = pw[j % k]
            j //= k
            code = codes[j]
            new = codes[j] = shared[code + (v - old) * d]
            old, v = value[code], value[new]
            if old == v:
                self._steps += stop_charge(levels, codes)
                return
        self._steps += len(levels)

    def query(self):
        self._steps += 1
        if not self.levels:
            return None
        return self.value[self.levels[-1][0]]

    def prefix(self, length):
        """Evaluation of the first `length` letters; for length 0 the caller's
        identity, None when its semigroup has none."""
        if not (0 <= length <= self.n):
            raise PositionOutOfRange(f"prefix length {length} outside 0..{self.n}")
        self._steps += 1
        if length == 0:
            return self.identity
        return self.infix(0, length - 1)

    def infix(self, i, j):
        """Evaluation of letters i..j inclusive (0-based).

        Climbs the levels folding the partial left node into `left` and the
        partial right node into `right`; the nodes strictly between them are
        whole, so they become the range i..j one level up.
        """
        if not (0 <= i <= j < self.n):
            raise PositionOutOfRange(f"infix ({i},{j}) invalid for n={self.n}")
        k, inf, t = self.k, self.inf, self.semigroup.table
        kk = k * k
        left = right = self.semigroup.identity
        for codes in self.levels:
            self._steps += 1
            ni, di = divmod(i, k)
            nj, dj = divmod(j, k)
            if ni == nj:
                mid = inf[codes[ni] * kk + di * k + dj]
                return t[t[left][mid]][right]
            left = t[left][inf[codes[ni] * kk + di * k + k - 1]]
            right = t[inf[codes[nj] * kk + dj]][right]
            i, j = ni + 1, nj - 1
            if i > j:
                return t[left][right]


def make_kary_engine(semigroup, word):
    """Dynamic word engine with prefix/infix queries; adjoins an identity if
    the input is not a monoid (letters keep their original ids)."""
    return KaryEngine(semigroup, word)
