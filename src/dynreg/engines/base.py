"""Engine contract and the linear-scan oracle.

Every engine maintains a fixed-length word of semigroup element ids under
letter substitutions (0-based positions) and answers evaluation queries.
query() returns None exactly when the word is empty. op_count is a monotone
counter of elementary steps and structure probes, used by the complexity
assertions; it never feeds back into the answers. It is the engine's own
_steps plus the counters of the parts it lists in _parts(): a sub-engine's
op_count, a VebMap's probes, a layer's steps.
"""

from __future__ import annotations

from operator import index

import numpy as np

from ..errors import PositionOutOfRange, RangeError
from ..veb import VebMap


def check_letters(word, size):
    """RangeError naming the first letter that is not an integer in
    0..size-1. A nonempty ndarray must have an integer dtype, checked by
    dtype, not by scan, and is range-checked with one min and one max;
    other sequences are checked letter by letter, as check_letter does."""
    if isinstance(word, np.ndarray):
        if not len(word):
            return
        if not np.issubdtype(word.dtype, np.integer):
            raise RangeError(f"letters of dtype {word.dtype} are not integers")
        if word.min() >= 0 and word.max() < size:
            return
        word = word[(word < 0) | (word >= size)][:1].tolist()
    for a in word:
        if type(a) is not int or not (0 <= a < size):
            check_letter(a, size)


def check_letter(letter, size):
    """RangeError unless letter is an integer in 0..size-1, numpy integers
    included: a float, str, None or list is no letter, not even 1.0."""
    try:
        index(letter)
    except TypeError:
        raise RangeError(f"letter {letter!r} is not an integer") from None
    if not (0 <= letter < size):
        raise RangeError(f"letter {letter} out of range")


class Engine:
    """Letters are the ids of the semigroup the caller passed: an engine that
    extends it (an adjoined zero or identity) still accepts only its size."""

    kind = "abstract"

    def __init__(self, semigroup, word):
        self.semigroup = semigroup
        self.size = semigroup.size
        if isinstance(word, np.ndarray):
            check_letters(word, self.size)
            self.word = word.tolist()
        else:
            self.word = list(word)
            check_letters(self.word, self.size)
        self.n = len(self.word)
        self._steps = 0

    def _check(self, pos, letter):
        if not (0 <= pos < self.n):
            raise PositionOutOfRange(f"position {pos} outside 0..{self.n - 1}")
        if type(letter) is not int or not (0 <= letter < self.size):
            check_letter(letter, self.size)

    def update(self, pos, letter):
        raise NotImplementedError

    def query(self):
        raise NotImplementedError

    def _parts(self):
        """Sub-engines, layers and VebMaps whose counters op_count adds."""
        return ()

    @property
    def op_count(self):
        total = self._steps
        for part in self._parts():
            if isinstance(part, Engine):
                total += part.op_count
            elif isinstance(part, VebMap):
                total += part.probes
            else:
                total += part.steps
        return total

    def snapshot(self):
        return tuple(self.word)


class NaiveEngine(Engine):
    """Re-reads the whole word at each query; the differential-test oracle."""

    kind = "naive"

    def update(self, pos, letter):
        self._check(pos, letter)
        self.word[pos] = letter
        self._steps += 1

    def query(self):
        self._steps += self.n
        return self.semigroup.eval_word(self.word)

    def prefix(self, length):
        if not (0 <= length <= self.n):
            raise PositionOutOfRange(f"prefix length {length} outside 0..{self.n}")
        self._steps += length
        if length == 0:
            return self.semigroup.identity
        return self.semigroup.eval_word(self.word[:length])

    def infix(self, i, j):
        if not (0 <= i <= j < self.n):
            raise PositionOutOfRange(f"infix ({i},{j}) invalid for n={self.n}")
        self._steps += j - i + 1
        return self.semigroup.eval_word(self.word[i : j + 1])


def make_naive_engine(semigroup, word):
    return NaiveEngine(semigroup, word)
