"""The engine registry, the auto ladder, and the one walk that picks an engine.

REGISTRY lists (name, factory), one row per engine route. Every factory
checks its own class: before it reads the word it raises NotApplicable when
the semigroup is outside its class, and NoPlan, a NotApplicable, when the
class holds but no constant-time plan was found. AUTO_LADDER is the registry
up to kary, which takes any semigroup; the entries after it are built only
when asked for by name. The constant-time count and nilpotent engines have no
row of their own: a commutative or nilpotent-plus-identity monoid is a
one-factor zg certificate, so the zg row builds them.
A Q_LZG language picks its engine in language.make_language_engine (zg,
else the fused window engine, else kary-downgraded), by the stable
semigroup's certificate and window plan, with no ladder walk.

AUTO_LADDER holds no sg, by measurement: from n = 2^10 to 2^20 log log n
and log n / log log n stay within 10 % of each other, and on the Q_SG_ONLY
test languages the vEB engine ran over 10x slower per edit than kary.
sg stays selectable by name as the O(log log n) witness. The ladder ends
in kary, so a zg rung without a plan reads kary-downgraded.
"""

from __future__ import annotations

import logging

from ..errors import NoPlan, NotApplicable
from .base import make_naive_engine
from .kary import make_kary_engine
from .prefix import make_prefix_engine
from .sg import make_sg_engine
from .zg import make_zg_engine

logger = logging.getLogger(__name__)

AUTO_LADDER = (("zg", make_zg_engine), ("kary", make_kary_engine))
REGISTRY = AUTO_LADDER + (
    ("sg", make_sg_engine), ("prefix", make_prefix_engine), ("naive", make_naive_engine))
ENGINES = dict(REGISTRY)


def build_first(ladder, semigroup, word):
    """(tag, engine) from the first rung of ladder that accepts semigroup.

    The last rung is built unguarded. The tag is the rung's name, plus
    "-downgraded" when an earlier rung raised NoPlan; a downgraded engine
    carries the tag as its kind, and the downgrade is logged here.
    """
    lost = None
    for name, factory in ladder[:-1]:
        try:
            engine = factory(semigroup, word)
            break
        except NoPlan as exc:
            lost = lost or (name, exc)
        except NotApplicable:
            pass
    else:
        name, factory = ladder[-1]
        engine = factory(semigroup, word)
    if lost is None:
        return name, engine
    logger.warning(
        "%s engine: %s; built the %s engine instead, answers stay exact",
        lost[0], lost[1], name,
    )
    engine.kind = f"{name}-downgraded"
    return engine.kind, engine


def eligible_engines(semigroup):
    """(name, factory) of every REGISTRY entry but the naive oracle, the
    last, whose factory accepts semigroup, in registry order."""
    out = []
    for name, factory in REGISTRY[:-1]:
        try:
            factory(semigroup, [])
        except NotApplicable:
            continue
        out.append((name, factory))
    return out


def make_auto_engine(semigroup, word):
    """zg < kary: the first rung that accepts semigroup."""
    return build_first(AUTO_LADDER, semigroup, word)[1]
