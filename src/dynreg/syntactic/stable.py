"""Stability index and stable semigroup of a recognized language."""

from __future__ import annotations

from ..errors import InternalError
from ..algebra.core import restriction


class StableData:
    def __init__(self, index, stable, inclusion, morphism):
        self.index = index              # stability index s
        self.stable = stable            # FiniteSemigroup on eta(Sigma^s)
        self.inclusion = inclusion      # stable id -> monoid id
        self.to_stable = {m: i for i, m in enumerate(inclusion)}
        self._morphism = morphism
        self.block_images = {}          # block tuple -> stable id, filled by block_image

    def block_image(self, block):
        """Stable id of a block of alphabet symbols whose length is a positive
        multiple of s, since eta(Sigma^ks) = eta(Sigma^s) (memoized)."""
        block = tuple(block)
        hit = self.block_images.get(block)
        if hit is None:
            if not block or len(block) % self.index:
                raise InternalError(f"block length {len(block)} is not a multiple of the stability index")
            hit = self.to_stable[self._morphism.image(block)]
            self.block_images[block] = hit
        return hit


def stable_data(m):
    """Iterate X -> X * eta(Sigma) in the powerset monoid until X^s is idempotent."""
    letters = frozenset(m.eta[a] for a in m.alphabet)
    t = m.target.table
    current = letters
    s = 1
    limit = 2 ** m.target.size + 1
    while True:
        square = frozenset(t[x][y] for x in current for y in current)
        if square == current:
            break
        s += 1
        if s > limit:
            raise InternalError("powerset iteration exceeded 2^|M| steps")
        current = frozenset(t[x][y] for x in current for y in letters)
    stable, inclusion = restriction(m.target, sorted(current))
    return StableData(s, stable, inclusion, m)
