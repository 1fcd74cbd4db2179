"""The engine registry and the one decision that picks an engine.

REGISTRY lists (name, factory), one row per engine route. Every factory
checks its own class: before it reads the word it raises NotApplicable when
the semigroup is outside its class, and NoPlan, a NotApplicable, when the
class holds but no constant-time plan was found. The constant-time count
and nilpotent engines have no row of their own: a commutative or
nilpotent-plus-identity monoid is a one-factor zg certificate, so the zg row
builds them. ENGINES maps each name, and "auto", to its factory.

route() alone picks, for make_auto_engine and for a Q_LZG language
(language.make_language_engine): zg where the memoized certificate search
certifies the semigroup; else, for a language, the fused window engine where
a window plan is verified; else the k-ary tree over the caller's letters
(for a language, over the values of its blocks of letters).
It alone logs a downgrade, the k-ary tree built where the constant-time
class held but no plan was found.

route() never picks sg, by measurement: from n = 2^10 to 2^20 log log n
and log n / log log n stay within 10 % of each other, and on the Q_SG_ONLY
test languages the vEB engine ran over 10x slower per edit than kary.
sg stays selectable by name as the O(log log n) witness.
"""

from __future__ import annotations

import logging

from ..errors import NotApplicable, NotZg
from .base import make_naive_engine
from .kary import make_kary_engine
from .prefix import make_prefix_engine
from .sg import make_sg_engine
from .windowstats import synthesize_window_plan
from .zg import make_zg_engine, zg_certificate

logger = logging.getLogger(__name__)

REGISTRY = (
    ("zg", make_zg_engine), ("kary", make_kary_engine), ("sg", make_sg_engine),
    ("prefix", make_prefix_engine), ("naive", make_naive_engine))


def route(semigroup, window=False):
    """(tag, plan): ("zg", None) when the certificate search certifies
    semigroup; else, with window, ("window", plan) when a window plan is
    verified; else ("kary", None), or ("kary-downgraded", None), logged,
    when the constant-time class held: semigroup is in ZG, or, with window,
    is a Q_LZG language's stable semigroup."""
    cert = zg_certificate(semigroup)
    if cert is not None and not isinstance(cert, NotZg):
        return "zg", None
    plan = synthesize_window_plan(semigroup) if window else None
    if plan is not None:
        return "window", plan
    if isinstance(cert, NotZg) and not window:
        return "kary", None
    logger.warning(
        "no zg certificate%s for the %d-element semigroup; built the kary engine "
        "instead, answers stay exact", " and no window plan" if window else "", semigroup.size)
    return "kary-downgraded", None


def make_auto_engine(semigroup, word):
    """The zg engine where route picks it, else the k-ary tree, of kind
    kary-downgraded where the zg class held."""
    tag, _ = route(semigroup)
    if tag == "zg":
        return make_zg_engine(semigroup, word)
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
