"""Language facade: stable-semigroup chunking on top of the right engine.

The word is cut into blocks of s letters (s the stability index) plus a
verbatim tail of fewer than s letters. Block images live in the stable
semigroup and feed an inner engine chosen by the trichotomy class:

  Q_LZG        the certificate engine if one is found, else a verified
               window-statistics engine, else the vEB engine (correct, but
               the O(1) bound is lost; the kind tag says "-downgraded").
  Q_SG_ONLY    the vEB engine.
  OUTSIDE_Q_SG the k-ary tree over the syntactic monoid, no chunking.

Membership composes the inner evaluation with the tail image in the
syntactic monoid and tests the accept set.
"""

from __future__ import annotations

from ..errors import PositionOutOfRange, RangeError
from ..syntactic.classify import OUTSIDE_Q_SG, Q_LZG
from .base import Engine
from .dispatch import ENGINES, build_first
from .windowstats import make_windowstats_engine

LZG_LADDER = (("zg", ENGINES["zg"]), ("window", make_windowstats_engine), ("sg", ENGINES["sg"]))
SG_LADDER = (("sg", ENGINES["sg"]),)


class LanguageEngine(Engine):
    def __init__(self, morphism, stable, report, word):
        self.morphism = morphism
        self.stable = stable
        self.report = report
        self.word = list(word)
        self.n = len(self.word)
        self._steps = 0
        for a in self.word:
            if a not in morphism.eta:
                raise RangeError(f"letter {a!r} not in the alphabet")
        self.s = stable.index
        self.chunked = report.cls != OUTSIDE_Q_SG
        if not self.chunked:
            letters = [morphism.eta[a] for a in self.word]
            self.inner = ENGINES["kary"](morphism.target, letters)
            self.kind = "language[kary]"
            return
        self.blocks = self.n // self.s
        inner_word = [
            stable.block_image(self.word[b * self.s : (b + 1) * self.s])
            for b in range(self.blocks)
        ]
        ladder = LZG_LADDER if report.cls == Q_LZG else SG_LADDER
        tag, self.inner = build_first(ladder, stable.stable, inner_word)
        self.kind = f"language[{tag}]"

    def update(self, pos, letter):
        if not (0 <= pos < self.n):
            raise PositionOutOfRange(f"position {pos} outside 0..{self.n - 1}")
        if letter not in self.morphism.eta:
            raise RangeError(f"letter {letter!r} not in the alphabet")
        self._steps += 1
        self.word[pos] = letter
        if not self.chunked:
            self.inner.update(pos, self.morphism.eta[letter])
            return
        b = pos // self.s
        if b < self.blocks:
            self._steps += self.s
            img = self.stable.block_image(self.word[b * self.s : (b + 1) * self.s])
            self.inner.update(b, img)
        # tail letters are read verbatim at query time

    def query(self):
        """Membership bit for the current word."""
        m = self.morphism
        if not self.chunked:
            self._steps += 1
            v = self.inner.query()
            if v is None:
                v = m.target.identity
            return v in m.accept
        self._steps += self.s + 1
        acc = None
        inner_val = self.inner.query()
        if inner_val is not None:
            acc = self.stable.inclusion[inner_val]
        for a in self.word[self.blocks * self.s :]:
            x = m.eta[a]
            acc = x if acc is None else m.target.table[acc][x]
        if acc is None:
            acc = m.target.identity
        return acc in m.accept

    def _parts(self):
        return (self.inner,)


def make_language_engine(morphism, stable, report, word):
    return LanguageEngine(morphism, stable, report, word)
