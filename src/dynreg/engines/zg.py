"""Constant-time engine for ZG monoids via subdirect certificates.

The certificate splits the monoid into commutative and nilpotent-plus-identity
quotients; each factor gets its O(1) engine, glued back with product and
division combinators. The decomposition is only guaranteed to exist as a
variety statement, so the certificate search can fail; the factory then
raises NoZgCertificate, and dispatch.route picks the next engine.
"""

from __future__ import annotations

import numpy as np

from ..algebra.core import adjoin_identity
from ..algebra.zg import FACTOR_COM, find_zg_certificate
from ..errors import NoZgCertificate, NotZg
from ..memo import memo
from .base import check_letters
from .combinators import DivisionEngine, ProductEngine
from .counting import CountEngine, NilpotentEngine


@memo
def _certificate(monoid):
    """The certificate, None when the search fails, or the NotZg raised for
    a monoid outside ZG: returned, not raised, so the memo keeps it too."""
    try:
        return find_zg_certificate(monoid)
    except NotZg as exc:
        return exc.with_traceback(None)  # keep no frames alive in the memo


def zg_certificate(semigroup):
    """The memoized certificate search over the monoid S^1: the certificate,
    None when the search fails, or the NotZg of a semigroup outside ZG."""
    return _certificate(adjoin_identity(semigroup))


def make_zg_engine(semigroup, word):
    # S is in ZG exactly when S^1 is, so the certificate search's own ZG
    # check (NotZg) is this factory's class check
    monoid = adjoin_identity(semigroup)
    cert = zg_certificate(semigroup)
    if isinstance(cert, NotZg):
        raise NotZg(*cert.args)
    if cert is None:
        raise NoZgCertificate(f"no subdirect certificate for the {monoid.size}-element monoid")
    # letters are the caller's ids; S^1's adjoined identity is not one of them
    check_letters(word, semigroup.size)
    makers = [CountEngine if kind == FACTOR_COM else NilpotentEngine for kind in cert.kinds]
    if len(makers) == 1:
        eng = makers[0](monoid, word)
        eng.size = semigroup.size
        return eng
    rep = cert.embedding[: semigroup.size]
    factor_words = np.array(rep, dtype=np.intp)[np.asarray(word, dtype=np.intp)]
    parts = [
        make(f, factor_words[:, i])
        for i, (f, make) in enumerate(zip(cert.factors, makers))
    ]
    eng = DivisionEngine(rep=rep, project=cert.projection, inner=ProductEngine(parts))
    eng.kind = "zg"
    return eng
