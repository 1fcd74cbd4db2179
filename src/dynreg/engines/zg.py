"""Constant-time engine for ZG monoids via subdirect certificates.

The certificate splits the monoid into commutative and nilpotent-plus-identity
quotients; each factor gets its O(1) engine, glued back with product and
division combinators. When the certificate search fails (the decomposition is
only guaranteed to exist as a variety statement) we fall back to the vEB
engine, keeping answers exact but losing the O(1) bound; the kind tag records
the downgrade so benchmarks can exclude such runs.
"""

from __future__ import annotations

import logging

from ..algebra.core import adjoin_identity
from ..algebra.varieties import check_variety
from ..algebra.zg import FACTOR_COM, find_zg_certificate
from ..errors import NotZg
from ..memo import memo
from .combinators import DivisionEngine, ProductEngine
from .counting import CountEngine, NilpotentEngine

logger = logging.getLogger(__name__)


@memo
def _certificate(monoid):
    return find_zg_certificate(monoid)


def make_zg_engine(semigroup, word):
    if not check_variety(semigroup, "ZG"):
        raise NotZg("semigroup does not satisfy x^(w+1) y = y x^(w+1)")
    monoid = adjoin_identity(semigroup)
    cert = _certificate(monoid)
    if cert is None:
        from .sg import make_sg_engine

        logger.warning(
            "no subdirect ZG certificate found (size %d); falling back to the "
            "vEB engine, answers stay exact", monoid.size,
        )
        eng = make_sg_engine(semigroup, word)
        eng.kind = "zg-downgraded-sg"
        return eng
    makers = [CountEngine if kind == FACTOR_COM else NilpotentEngine for kind in cert.kinds]
    if len(makers) == 1:
        return makers[0](monoid, word)
    parts = [
        make(f, [cert.embedding[a][i] for a in word])
        for i, (f, make) in enumerate(zip(cert.factors, makers))
    ]
    inner = ProductEngine(parts)
    eng = DivisionEngine(rep=cert.embedding, project=cert.projection, inner=inner)
    eng.kind = "zg"
    return eng
