"""Engine for semidirect products T o S with S definite.

The engine keeps the word of product letters alone; SemidirectSpec owns
their layout, and pair_of splits a letter into its T- and S-letter where
one is read. The second component of the evaluation is read off the last k
letters (k the definiteness window). The first component is the evaluation
of the transformed word t_1, act(s_1, t_2), act(s_1 s_2, t_3), ...
maintained in an inner engine for T; an update at position i rewrites the
transformed cell at i plus at most k following cells, each recomputed from
the k preceding S-letters. One product over a window of S-letters,
_s_product, serves both reads. An update charges 1 plus k per cell
rewritten, a query k, plus the inner engine's count.
"""

from __future__ import annotations

from ..algebra.core import FiniteSemigroup
from ..algebra.varieties import check_variety, definiteness_window
from ..errors import NotDefinite, RangeError
from .base import Engine
from .dispatch import make_auto_engine


class SemidirectSpec:
    """Explicit (s_part, t_part, act) data with the action laws validated."""

    def __init__(self, s_part, t_part, act):
        if not check_variety(s_part, "DEFINITE"):
            raise NotDefinite("s_part does not satisfy y x^w = x^w")
        self.s_part = s_part
        self.t_part = t_part
        self.act = [list(row) for row in act]
        self.window = definiteness_window(s_part)
        self._validate()

    def _validate(self):
        s, t, act = self.s_part, self.t_part, self.act
        if len(act) != s.size or any(len(r) != t.size for r in act):
            raise RangeError("act table has wrong shape")
        for s1 in range(s.size):
            for s2 in range(s.size):
                for x in range(t.size):
                    if act[s1][act[s2][x]] != act[s.table[s1][s2]][x]:
                        raise RangeError("act(s1, act(s2, t)) != act(s1 s2, t)")
        for s1 in range(s.size):
            for x in range(t.size):
                for y in range(t.size):
                    if act[s1][t.table[x][y]] != t.table[act[s1][x]][act[s1][y]]:
                        raise RangeError("act(s, t1 t2) != act(s, t1) act(s, t2)")

    def product_semigroup(self):
        """The explicit semidirect product on T x S pairs (for oracles)."""
        t, s, act = self.t_part, self.s_part, self.act
        ns = s.size

        def pid(tv, sv):
            return tv * ns + sv

        table = []
        for t1 in range(t.size):
            for s1 in range(s.size):
                row = []
                for t2 in range(t.size):
                    for s2 in range(s.size):
                        row.append(
                            pid(t.table[t1][act[s1][t2]], s.table[s1][s2])
                        )
                table.append(row)
        names = [
            f"({t.names[tv]},{s.names[sv]})"
            for tv in range(t.size)
            for sv in range(s.size)
        ]
        return FiniteSemigroup(table, names=names, validate=False)

    def pair_of(self, letter):
        return divmod(letter, self.s_part.size)

    def letter_of(self, tv, sv):
        return tv * self.s_part.size + sv


class SemidirectEngine(Engine):
    kind = "semidirect"

    def __init__(self, spec, word):
        self.spec = spec
        product = spec.product_semigroup()
        super().__init__(product, word)
        self.k = spec.window
        self.inner = make_auto_engine(spec.t_part, self.transformed_snapshot())

    def _s_product(self, lo, hi):
        """Product of the S-letters at positions lo..hi - 1, lo clipped to 0;
        None when there are none."""
        pair_of, t = self.spec.pair_of, self.spec.s_part.table
        acc = None
        for a in self.word[max(0, lo):hi]:
            sv = pair_of(a)[1]
            acc = sv if acc is None else t[acc][sv]
        return acc

    def _transformed(self, i):
        p = self._s_product(i - self.k, i)
        tv = self.spec.pair_of(self.word[i])[0]
        return tv if p is None else self.spec.act[p][tv]

    def update(self, pos, letter):
        self._check(pos, letter)
        self.word[pos] = letter
        self._steps += 1
        for j in range(pos, min(pos + self.k, self.n - 1) + 1):
            self._steps += self.k
            self.inner.update(j, self._transformed(j))

    def query(self):
        if self.n == 0:
            return None
        self._steps += self.k
        t_val = self.inner.query()
        s_val = self._s_product(self.n - self.k, self.n)
        return self.spec.letter_of(t_val, s_val)

    def transformed_snapshot(self):
        return [self._transformed(i) for i in range(self.n)]

    def _parts(self):
        return (self.inner,)


def make_semidirect_engine(spec, word):
    return SemidirectEngine(spec, word)
