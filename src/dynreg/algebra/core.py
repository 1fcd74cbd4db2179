"""Finite semigroup kernel: validated multiplication tables with cached structure.

Elements are dense integers 0..size-1; display names are cosmetic. All values
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    AssociativityViolation,
    InvalidCongruence,
    RangeError,
)
from ..memo import memo


@dataclass(frozen=True)
class OmegaData:
    """Idempotent-power data of a single element: x^exponent is the idempotent
    element, and the powers of x from there on cycle with length period."""

    exponent: int
    element: int
    plus_one: int
    is_group_element: bool
    period: int


class FiniteSemigroup:
    """A finite semigroup given by its full composition table.

    The table is validated for associativity on construction (all size^3
    triples, vectorized). Identity and zero are detected automatically and
    omega data is precomputed per element.
    """

    def __init__(self, table, names=None, validate=True):
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise RangeError("table must be a list of rows, each a list")
        self.size = len(table)
        if self.size == 0:
            raise RangeError("empty table")
        for row in table:
            if len(row) != self.size:
                raise RangeError("table is not square")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < self.size):
                    raise RangeError(f"table entry {v!r} out of range")
        self.table = [list(row) for row in table]
        if names is None:
            names = [f"e{i}" for i in range(self.size)]
        if len(names) != self.size:
            raise RangeError("names length mismatch")
        self.names = list(names)
        self._name_to_id = {n: i for i, n in enumerate(self.names)}
        if validate:
            self._check_associative()
        self.identity = self._find_identity()
        self.zero = self._find_zero()
        self._omega = self._compute_omega()
        self.idempotents = tuple(
            x for x in range(self.size) if self.table[x][x] == x
        )

    def _check_associative(self):
        a = np.asarray(self.table, dtype=np.int64)
        lhs = a[a]              # lhs[x,y,z] = (x*y)*z
        rhs = np.take(a, a, axis=1)  # rhs[x,y,z] = x*(y*z)
        if not np.array_equal(lhs, rhs):
            x, y, z = np.argwhere(lhs != rhs)[0]
            raise AssociativityViolation(int(x), int(y), int(z))

    def _find_identity(self):
        for e in range(self.size):
            row_ok = all(self.table[e][x] == x for x in range(self.size))
            if row_ok and all(self.table[x][e] == x for x in range(self.size)):
                return e
        return None

    def _find_zero(self):
        for z in range(self.size):
            row_ok = all(self.table[z][x] == z for x in range(self.size))
            if row_ok and all(self.table[x][z] == z for x in range(self.size)):
                return z
        return None

    def _compute_omega(self):
        out = []
        for x in range(self.size):
            p = x
            k = 1
            while self.table[p][p] != p:
                p = self.table[p][x]
                k += 1
                if k > self.size + 1:
                    # cannot happen on an associative table
                    raise RangeError(f"no idempotent power for element {x}")
            plus_one = self.table[p][x]
            period, v = 1, plus_one
            while v != p:
                v = self.table[v][x]
                period += 1
            out.append(OmegaData(k, p, plus_one, plus_one == x, period))
        return tuple(out)

    # -- basic access -----------------------------------------------------

    def omega_data(self, x):
        return self._omega[x]

    def eval_word(self, word):
        """Product of a sequence of element ids, or None for the empty word."""
        it = iter(word)
        try:
            acc = next(it)
        except StopIteration:
            return None
        t = self.table
        for x in it:
            acc = t[acc][x]
        return acc

    def id_of(self, name):
        try:
            return self._name_to_id[name]
        except KeyError:
            raise RangeError(f"no element named {name!r}; the elements are "
                             f"{', '.join(self.names)}") from None

    def __repr__(self):
        return f"FiniteSemigroup(size={self.size})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSemigroup)
            and self.table == other.table
        )

    def __hash__(self):
        # the table never changes, so its hash is taken once: every memo
        # lookup keyed by a semigroup hashes it
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(tuple(tuple(r) for r in self.table))
            return self._hash


def build_semigroup(table, identity_hint=None, names=None):
    """Validate a composition table and return the semigroup.

    identity_hint, when given, is cross-checked against the detected identity.
    Given names must be distinct, so that each names one element. (Semigroups
    the library derives may repeat a name, e.g. a syntactic monoid over an
    alphabet with the letter "1", whose identity is also named "1".)
    """
    if names is not None and len(set(names)) != len(names):
        raise RangeError(f"repeated element name in {list(names)!r}")
    s = FiniteSemigroup(table, names=names)
    if identity_hint is not None and s.identity != identity_hint:
        raise RangeError(
            f"identity hint {identity_hint} does not match detected {s.identity}"
        )
    return s


def omega(s, x):
    """Least k >= 1 with x^k idempotent, together with the id of x^k."""
    if not (0 <= x < s.size):
        raise RangeError(f"element {x} out of range")
    d = s.omega_data(x)
    return d.exponent, d.element


# -- constructions ---------------------------------------------------------


def direct_product(s, t):
    """Componentwise product; element (x, y) has id x*t.size + y."""
    nt = t.size
    table = [
        [s.table[x1][x2] * nt + t.table[y1][y2] for x2 in range(s.size) for y2 in range(nt)]
        for x1 in range(s.size)
        for y1 in range(nt)
    ]
    names = [
        f"({s.names[x]},{t.names[y]})" for x in range(s.size) for y in range(nt)
    ]
    return FiniteSemigroup(table, names=names, validate=False)


def quotient(s, cong):
    """Quotient by a congruence (blocks of compatible elements)."""
    block_of = cong.block_of
    nblocks = len(cong.blocks)
    table = [[None] * nblocks for _ in range(nblocks)]
    for x in range(s.size):
        bx = block_of[x]
        for y in range(s.size):
            b = table[bx][block_of[y]]
            v = block_of[s.table[x][y]]
            if b is None:
                table[bx][block_of[y]] = v
            elif b != v:
                raise InvalidCongruence("blocks are not compatible with composition")
    names = ["{" + ",".join(s.names[x] for x in blk) + "}" for blk in cong.blocks]
    return FiniteSemigroup(table, names=names, validate=False)


def reach(seed, step):
    """The seed and everything step reaches from it, each element once, in
    FIFO breadth-first order: the seed in its own order, then the
    successors of each element in the order step(x) lists them.

    Elements must be hashable. step is called once per element, in the
    order of the result, so a step that records what it computes sees the
    elements in that order too. Every graph walk of the analysis layer runs
    here: subsemigroup closure, Green's ideals, subset construction and
    minimization, the transition monoid and the congruence lattice.
    """
    order = list(dict.fromkeys(seed))
    seen = set(order)
    for x in order:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def generated_subsemigroup(s, seed):
    """Closure of a seed set under composition: <X> = X^+, every product
    of generators reached by right multiplications.

    Returns (subsemigroup, inclusion) where inclusion[i] is the id in s of
    the i-th element of the subsemigroup.
    """
    seed = sorted(set(seed))
    if not seed:
        raise RangeError("seed must be non-empty")
    t = s.table
    return restriction(s, reach(seed, lambda x: [t[x][g] for g in seed]))


def restriction(s, subset):
    """Subsemigroup on a closed subset; raises if the subset is not closed."""
    subset = sorted(subset)
    old_to_new = {x: i for i, x in enumerate(subset)}
    table = []
    for x in subset:
        row = []
        for y in subset:
            v = s.table[x][y]
            if v not in old_to_new:
                raise RangeError(f"subset not closed: {x}*{y}={v}")
            row.append(old_to_new[v])
        table.append(row)
    names = [s.names[x] for x in subset]
    sub = FiniteSemigroup(table, names=names, validate=False)
    return sub, list(subset)


@memo
def table_array(s):
    """The table of s as a numpy array of the narrowest unsigned dtype that
    holds its ids, for vectorized products (memoized)."""
    return np.asarray(s.table, dtype=np.min_scalar_type(s.size - 1))


def adjoin_zero(s, reuse=False):
    """Add a zero. By default a fresh zero is added even if one exists."""
    if reuse and s.zero is not None:
        return s
    n = s.size
    table = [row + [n] for row in s.table] + [[n] * (n + 1)]
    return FiniteSemigroup(table, names=s.names + ["0*"], validate=False)


def adjoin_identity(s, reuse=True):
    """S^1: add a fresh neutral element unless one already exists. S^1 is
    built once per table and names (memoized), so the zg certificate test
    and the zg build over one semigroup share it."""
    if reuse and s.identity is not None:
        return s
    return _with_identity(s, tuple(s.names))


@memo
def _with_identity(s, names):
    """S^1 of s, named names + 1*. The names are part of the memo key, as s
    hashes and compares by its table alone: an equal table under other
    names gets an S^1 of its own."""
    n = s.size
    table = [row + [x] for x, row in enumerate(s.table)]
    table.append(list(range(n)) + [n])
    return FiniteSemigroup(table, names=[*names, "1*"], validate=False)
