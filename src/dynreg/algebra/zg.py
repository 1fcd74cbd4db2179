"""Subdirect decomposition certificates for ZG monoids.

A certificate factors the monoid through a product of quotients, each either
commutative or of shape S^1 with S nilpotent; these are exactly the pieces the
constant-time engines know how to maintain.
"""

from __future__ import annotations

from itertools import combinations

from ..errors import NotZg, TooLarge
from .congruence import enumerate_congruences
from .core import quotient
from .varieties import check_variety

FACTOR_COM = "commutative"
FACTOR_NIL1 = "nilpotent-plus-identity"


class ZgCertificate:
    def __init__(self, source, factors, kinds, embedding, projection):
        self.source = source
        self.factors = factors        # list of FiniteSemigroup
        self.kinds = kinds            # parallel list of FACTOR_* tags
        self.embedding = embedding    # element id -> tuple of factor ids
        self.projection = projection  # realized tuple -> element id

    def validate(self):
        m = self.source
        emb = self.embedding
        if len(set(emb)) != m.size:
            return False
        for x in range(m.size):
            for y in range(m.size):
                prod = tuple(
                    f.table[emb[x][k]][emb[y][k]] for k, f in enumerate(self.factors)
                )
                if prod != emb[m.table[x][y]]:
                    return False
        return all(self.projection[emb[x]] == x for x in range(m.size))


def _factor_kind(q):
    if check_variety(q, "COM"):
        return FACTOR_COM
    if check_variety(q, "NIL_PLUS_ONE"):
        return FACTOR_NIL1
    return None


def _one_factor(m, kind):
    emb = [(x,) for x in range(m.size)]
    return ZgCertificate(m, [m], [kind], emb, {(x,): x for x in range(m.size)})


def find_zg_certificate(m):
    """Certificate for a ZG monoid, or None when the subdirect search fails.

    Searches subsets of the congruence lattice whose quotients are each
    commutative or nilpotent-plus-identity and whose blocks intersect
    trivially, which yields an injective morphism into the product.
    """
    if not check_variety(m, "ZG"):
        raise NotZg("monoid does not satisfy x^(w+1) y = y x^(w+1)")
    kind = _factor_kind(m)
    if kind is not None:
        return _one_factor(m, kind)
    try:
        congs = enumerate_congruences(m)
    except TooLarge:
        return None
    return subdirect_certificate(m, congs)


def subdirect_certificate(m, congs=None):
    """Search for a multi-factor subdirect certificate (no one-factor shortcut)."""
    if congs is None:
        congs = enumerate_congruences(m)
    candidates = []
    for c in congs:
        if len(c.blocks) in (1, m.size):
            continue  # universal and trivial quotients separate nothing useful
        q = quotient(m, c)
        k = _factor_kind(q)
        if k is not None:
            candidates.append((c, q, k))
    if not candidates:
        return None
    all_pairs = frozenset(
        (x, y) for x in range(m.size) for y in range(x + 1, m.size)
    )
    separated = [
        frozenset(
            (x, y) for (x, y) in all_pairs if c.block_of[x] != c.block_of[y]
        )
        for (c, _, _) in candidates
    ]
    chosen = None
    for size in range(2, min(len(candidates), 4) + 1):
        for combo in combinations(range(len(candidates)), size):
            cover = frozenset().union(*(separated[i] for i in combo))
            if cover == all_pairs:
                chosen = list(combo)
                break
        if chosen:
            break
    if chosen is None:
        chosen = _greedy_cover(separated, all_pairs)
    if chosen is None:
        return None
    factors = [candidates[i][1] for i in chosen]
    kinds = [candidates[i][2] for i in chosen]
    blocks = [candidates[i][0].block_of for i in chosen]
    embedding = [tuple(bo[x] for bo in blocks) for x in range(m.size)]
    projection = {emb: x for x, emb in enumerate(embedding)}
    cert = ZgCertificate(m, factors, kinds, embedding, projection)
    return cert if cert.validate() else None


def _greedy_cover(separated, all_pairs):
    remaining = set(all_pairs)
    chosen = []
    while remaining:
        best = max(range(len(separated)), key=lambda i: len(separated[i] & remaining))
        gain = separated[best] & remaining
        if not gain:
            return None
        chosen.append(best)
        remaining -= gain
    return chosen
