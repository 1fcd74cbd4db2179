"""Engine combinators: componentwise products and division through a
representation map, mirroring the closure of the word problem under the
variety operations."""

from __future__ import annotations

from ..errors import MissingProjection, TupleArity
from .base import Engine


class ProductEngine(Engine):
    """Fans updates out to component engines; queries return value tuples."""

    kind = "product"

    def __init__(self, engines):
        if not engines:
            raise TupleArity("product of zero engines")
        ns = {e.n for e in engines}
        if len(ns) != 1:
            raise TupleArity("component engines disagree on word length")
        self.engines = list(engines)
        self.n = ns.pop()
        self._steps = 0

    def update(self, pos, letters):
        if len(letters) != len(self.engines):
            raise TupleArity(
                f"expected {len(self.engines)} components, got {len(letters)}"
            )
        self._steps += 1
        for e, a in zip(self.engines, letters):
            e.update(pos, a)

    def query(self):
        self._steps += 1
        out = tuple(e.query() for e in self.engines)
        if any(v is None for v in out):
            return None
        return out

    def _parts(self):
        return self.engines


class DivisionEngine(Engine):
    """Maintains the word through a representation into another structure.

    rep maps an outer letter to an inner letter; project maps the inner
    evaluation back to the outer element (Proposition on closure under
    quotients and subsemigroups). The outer letters are 0..len(rep) - 1.
    """

    kind = "division"

    def __init__(self, rep, project, inner):
        self.rep = rep
        self.project = project
        self.inner = inner
        self.n = inner.n
        self.size = len(rep)
        self._steps = 0

    def update(self, pos, letter):
        self._check(pos, letter)
        self._steps += 1
        self.inner.update(pos, self.rep[letter])

    def query(self):
        self._steps += 1
        v = self.inner.query()
        if v is None:
            return None
        try:
            return self.project[v]
        except KeyError:
            raise MissingProjection(f"inner value {v!r} has no projection") from None

    def _parts(self):
        return (self.inner,)
