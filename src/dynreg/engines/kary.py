"""k-ary tree of packed codes, branching k ~ log n, one flat list per level.

Level 1 holds, for each run of k consecutive letters, their packed base-|M|
code; level l + 1 holds the codes of k consecutive level-l values, and the top
level holds a single code. Every level is padded to a multiple of k with the
adjoined identity, so every node has exactly k digits and one pair of tables
serves all of them: value[code] is the product of the k digits and
inf[code*k*k + i*k + j] the product of digits i..j. An update rewrites one
digit per level, climbing from the leaf and stopping at the first level whose
digit is unchanged; a query reads the top code.

The branching factor is the largest k >= 2 whose tables, |M|^k * k^2 cells,
are no larger than the word, and below n.bit_length(): that cap only binds
for a one-element monoid, whose tables never grow with k. Tiny n degrade to a
binary tree, and the height is ceil(log_k n) (one level when n = 1). The
level lists share one int object per code, since codes above 256 are not
CPython's cached small ints, and update stores the shared object of the new
code, so edits do not grow the lists' memory.

The build reads the ids in the narrowest dtype that holds every id, the
adjoined identity included: a level is padded in that dtype, and its codes
are built digit column by digit column (Horner's rule, in place) in one
int64 array of one entry per node, so the build makes no full-length int64
copy of the word.

An update checks its position, then maps its letter to a monoid id through
the letter map `ids`: _CallerIds for a plain engine, the alphabet map of a
language (language.py). A letter the map refuses, 1.0 too, raises
RangeError before any state changes. `word` keeps the caller's letters and
the climb runs on the id, so a language engine keeps one per-letter list.
"""

from __future__ import annotations

from operator import index

import numpy as np

from ..algebra.core import adjoin_identity
from ..errors import PositionOutOfRange, RangeError
from ..memo import memo
from .base import Engine, check_letter


# A forced branching factor may build up to max(n, FORCED_CELLS_MAX) table
# cells; the automatic one builds at most n.
FORCED_CELLS_MAX = 1 << 20


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
    """(value, inf) for k-digit codes: value[code] is the product of the
    digits, inf[code*k*k + i*k + j] the product of digits i..j (i <= j).

    Memoized per (table, k), so every engine over the same monoid shares them.
    """
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
    return inf[:, 0, k - 1].tolist(), inf.ravel().tolist()


class _CallerIds:
    """Each of the caller's ids to itself, numpy integers to their int, by
    check_letter: a dict {i: i} would find 1.0 under the key 1."""

    def __init__(self, size):
        self.size = size

    def __getitem__(self, letter):
        if type(letter) is not int or not (0 <= letter < self.size):
            check_letter(letter, self.size)
            return index(letter)
        return letter


class KaryEngine(Engine):
    kind = "kary"
    STEP = 0  # what an update charges before its climb

    def __init__(self, monoid, word, k=None):
        super().__init__(monoid, word)
        self.ids = _CallerIds(self.size)  # letter -> id
        self._build(monoid, word if isinstance(word, np.ndarray) else self.word, k)

    def _build(self, monoid, ids, k):
        """The tables and levels over ids, the checked ids of the n letters."""
        self.identity = monoid.identity  # the caller's, None if it has none
        self.semigroup = monoid = adjoin_identity(monoid)
        if k is None:
            k = branching(monoid.size, max(self.n, 1))
        elif k < 2:
            raise RangeError(f"branching factor {k} below 2")
        elif (cells := monoid.size**k * k * k) > max(self.n, FORCED_CELLS_MAX):
            raise RangeError(
                f"branching factor {k} over {monoid.size} elements needs {cells} "
                f"table cells, more than max(n, {FORCED_CELLS_MAX})"
            )
        self.k = k
        self._b = b = monoid.size
        self._pow = [b**i for i in range(k)]
        self.value, self.inf = _tables(monoid, k)
        # levels[0] packs the letters; levels[-1] is the single top code.
        # Lists, not arrays: the per-edit loop indexes scalars.
        self.levels = []
        shared = np.arange(b**k).astype(object)  # one int object per code
        self._codes = shared.tolist()   # update stores these, not fresh ints
        if not self.n:
            return
        # every level's digits in the narrowest dtype that holds the ids
        value = np.asarray(self.value, dtype=np.min_scalar_type(b - 1))
        vals = np.asarray(ids, dtype=value.dtype)
        while True:
            pad = -len(vals) % k
            if pad:
                vals = np.concatenate([vals, np.full(pad, monoid.identity, dtype=vals.dtype)])
            # Horner's rule over the digit columns, last digit first, in place
            digits = vals.reshape(-1, k)
            codes = digits[:, k - 1].astype(np.int64)
            for i in range(k - 2, -1, -1):
                codes *= b
                codes += digits[:, i]
            self.levels.append(shared[codes].tolist())
            if len(codes) == 1:
                break
            vals = value[codes]

    def update(self, pos, letter):
        if not (0 <= pos < self.n):
            raise PositionOutOfRange(f"position {pos} outside 0..{self.n - 1}")
        try:
            v = self.ids[letter]
        except (KeyError, TypeError):  # TypeError: an unhashable letter
            raise RangeError(f"letter {letter!r} not in the alphabet") from None
        self.word[pos] = letter
        k, b, pw, value, shared = self.k, self._b, self._pow, self.value, self._codes
        j = pos
        steps = self.STEP
        for codes in self.levels:
            steps += 1
            d = pw[j % k]
            j //= k
            code = codes[j]
            old = code // d % b
            if old == v:
                break
            code = codes[j] = shared[code + (v - old) * d]
            v = value[code]
        self._steps += steps

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


def make_kary_engine(semigroup, word, k=None):
    """Dynamic word engine with prefix/infix queries; adjoins an identity if
    the input is not a monoid (letters keep their original ids)."""
    return KaryEngine(semigroup, word, k=k)
