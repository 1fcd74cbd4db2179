"""The engine registry: every place that picks an engine reads this table.

REGISTRY lists (name, precondition, factory) in the order make_auto_engine
tries them: the first entry whose precondition holds wins. A precondition of
None means any semigroup will do, so kary ends the automatic ladder and the
entries after it are built only when asked for by name. Every factory checks
its own precondition and raises an EngineError subclass when it fails.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from ..algebra.varieties import check_variety
from .base import make_naive_engine
from .counting import CountEngine, NilpotentEngine
from .kary import make_kary_engine
from .prefix import make_prefix_engine
from .sg import make_sg_engine
from .zg import make_zg_engine


class Entry(NamedTuple):
    name: str
    precondition: Optional[Callable]  # semigroup -> bool; None: always holds
    factory: Callable  # (semigroup, word) -> engine

    def applies(self, semigroup):
        return self.precondition is None or self.precondition(semigroup)


REGISTRY = (
    Entry("count", lambda s: check_variety(s, "COM"), CountEngine),
    Entry(
        "nilpotent",
        lambda s: s.identity is not None and check_variety(s, "NIL_PLUS_ONE"),
        NilpotentEngine,
    ),
    Entry("zg", lambda s: check_variety(s, "ZG"), make_zg_engine),
    Entry("sg", lambda s: check_variety(s, "SG"), make_sg_engine),
    Entry("kary", None, make_kary_engine),
    Entry("prefix", None, make_prefix_engine),
    Entry("naive", None, make_naive_engine),
)

ENGINES = {entry.name: entry for entry in REGISTRY}


def first_eligible(ladder, semigroup):
    """The first entry of ladder that applies to semigroup. The last entry is
    the fallback and is taken untested: its factory checks it anyway."""
    for entry in ladder[:-1]:
        if entry.applies(semigroup):
            return entry
    return ladder[-1]


def eligible_engines(semigroup):
    """(name, factory) of every entry make_auto_engine could pick for
    semigroup, in registry order, up to the first unconditional entry."""
    out = []
    for entry in REGISTRY:
        if entry.applies(semigroup):
            out.append((entry.name, entry.factory))
        if entry.precondition is None:
            break
    return out


def make_auto_engine(semigroup, word):
    """count < nilpotent < zg < sg < kary, first whose precondition holds."""
    return first_eligible(REGISTRY, semigroup).factory(semigroup, word)
