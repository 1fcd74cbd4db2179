"""Language facade: stable-semigroup chunking on top of the right engine.

The word is cut into blocks of s letters (s the stability index) plus a
verbatim tail of fewer than s letters. Block images live in the stable
semigroup and feed an inner engine chosen by the trichotomy class:

  Q_LZG        stable in ZG -> certificate engine; otherwise a verified
               window-statistics engine; if verification fails, the vEB
               engine (correct, but the O(1) bound is lost; tagged).
  Q_SG_ONLY    the vEB engine.
  OUTSIDE_Q_SG the k-ary tree over the syntactic monoid, no chunking.

Membership composes the inner evaluation with the tail image in the
syntactic monoid and tests the accept set.
"""

from __future__ import annotations

import logging

from ..errors import PositionOutOfRange, RangeError
from ..syntactic.classify import OUTSIDE_Q_SG, Q_LZG
from .base import Engine
from .dispatch import ENGINES, Entry, first_eligible
from .windowstats import make_windowstats_engine, synthesize_window_plan

logger = logging.getLogger(__name__)

WINDOW = Entry(
    "window", lambda s: synthesize_window_plan(s) is not None, make_windowstats_engine
)
LZG_LADDER = (ENGINES["zg"], WINDOW, ENGINES["sg"])


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
            self.inner = ENGINES["kary"].factory(morphism.target, letters)
            self.kind = "language[kary]"
            return
        self.blocks = self.n // self.s
        inner_word = [
            stable.block_image(self.word[b * self.s : (b + 1) * self.s])
            for b in range(self.blocks)
        ]
        sg = stable.stable
        ladder = LZG_LADDER if report.cls == Q_LZG else (ENGINES["sg"],)
        entry = first_eligible(ladder, sg)
        self.inner = entry.factory(sg, inner_word)
        tag = entry.name
        if ladder is LZG_LADDER and tag == "sg":
            logger.warning(
                "no verified O(1) plan for the stable semigroup; "
                "falling back to the vEB engine"
            )
            tag = "sg-downgraded"
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
