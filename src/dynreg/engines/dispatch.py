"""The engine registry and the one decision that picks an engine.

REGISTRY lists (name, factory), one row per engine route. Every factory
checks its own class: before it reads the word it raises NotApplicable when
the semigroup is outside its class, and NoPlan, a NotApplicable, when the
class holds but no constant-time plan was found. The constant-time count
and nilpotent engines have no row of their own: a commutative or
nilpotent-plus-identity monoid is a one-factor zg certificate, so the zg row
builds them. ENGINES maps each name, and "auto", to its factory.

route() is the one ladder for a semigroup in LOCAL ZG, the constant-time
class: zg where the memoized certificate search certifies it, else the
window engine where a window plan is verified, else the k-ary tree, of kind
kary-downgraded, with a warning logged. Each caller gates the class with the
verdict it holds: make_auto_engine with the memoized LOCAL ZG check on the
semigroup, a language (language.make_language_engine) with its Q_LZG class
on the stable semigroup. Outside the class both build the k-ary tree over
their own letters (for a language, over the values of its blocks of letters).

route() never picks sg, by measurement: from n = 2^10 to 2^20 log log n
and log n / log log n stay within 10 % of each other, and on the Q_SG_ONLY
test languages the vEB engine ran over 10x slower per edit than kary.
sg stays selectable by name as the O(log log n) witness.
"""

from __future__ import annotations

import logging

from ..algebra.varieties import check_variety
from ..errors import NotApplicable, NotZg
from .base import make_naive_engine
from .kary import make_kary_engine
from .prefix import make_prefix_engine
from .sg import make_sg_engine
from .windowstats import WindowStatsEngine, synthesize_window_plan
from .zg import make_zg_engine, zg_certificate

logger = logging.getLogger(__name__)

REGISTRY = (
    ("zg", make_zg_engine), ("kary", make_kary_engine), ("sg", make_sg_engine),
    ("prefix", make_prefix_engine), ("naive", make_naive_engine))


def route(semigroup):
    """(tag, plan) for a semigroup in LOCAL ZG: ("zg", None) when the
    certificate search certifies it, else ("window", plan) when a window
    plan is verified, else ("kary-downgraded", None), logged."""
    cert = zg_certificate(semigroup)
    if cert is not None and not isinstance(cert, NotZg):
        return "zg", None
    plan = synthesize_window_plan(semigroup)
    if plan is not None:
        return "window", plan
    logger.warning(
        "no zg certificate and no window plan for the %d-element semigroup; built the "
        "kary engine instead, answers stay exact", semigroup.size)
    return "kary-downgraded", None


def make_auto_engine(semigroup, word):
    """What route picks in LOCAL ZG, else the k-ary tree."""
    tag, plan = route(semigroup) if check_variety(semigroup, ("LOCAL", "ZG")) else ("kary", None)
    if tag == "zg":
        return make_zg_engine(semigroup, word)
    if tag == "window":
        return WindowStatsEngine(semigroup, word, plan)
    engine = make_kary_engine(semigroup, word)
    engine.kind = tag
    return engine


ENGINES = {"auto": make_auto_engine, **dict(REGISTRY)}


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
