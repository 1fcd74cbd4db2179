"""Language engines: one k-ary tree over the letters, or stable-semigroup
chunking for Q_LZG.

Every language outside Q_LZG, Q_SG_ONLY as well as OUTSIDE_Q_SG, is a
KaryLanguageEngine (dispatch.py says why): a k-ary tree over the syntactic
monoid whose letter map is the alphabet map eta, so an update is one call
that checks the letter once, stores it in the one letter list `word` and
climbs with its id. A query reads the top code's accept bit from a per-code
list built once from the tree's value table.

A Q_LZG word goes to the chunked facade, LanguageEngine. It is cut into
blocks of s letters (s the stability index) plus a verbatim tail of fewer
than s letters. Block images live in the stable semigroup and feed the
certificate engine if one is found, else a verified window-statistics
engine, else the k-ary tree (correct, but the O(1) bound is lost; the kind
tag says "-downgraded"). Membership composes the inner evaluation with the
tail image in the syntactic monoid and tests the accept set. The block
images go to the inner engine as one array, checked by Engine.__init__ with
one min and max.

The chunked facade keeps its last membership bit. An edit clears it only
when it changes its block's image, and so reaches inner.update, or changes a
tail letter (one at pos >= blocks * s, which is every letter when n < s). A
query on a kept bit calls neither inner engine method and charges only the
facade's own s + 1 steps: op_count counts the work that ran. An edit that
writes the letter already there takes the same path, and keeps its block's
image. Neither engine stops early on such an edit.

Both engines build from the letters' monoid ids, taken by one of two routes
(_letter_ids). The bulk route applies when every letter is a one-character
str whose text encodes as latin-1 and the monoid has fewer than 255
elements: the encoded text goes through one bytes.translate with a 256-entry
id table, where byte 255 marks a character outside the alphabet. Every other
word, and every word in which that byte appears, takes the per-letter route,
one eta lookup per letter, which alone raises RangeError; so both routes
give the same ids, dtype and errors.
"""

from __future__ import annotations

import numpy as np

from ..algebra.core import table_array
from ..errors import InternalError, PositionOutOfRange, RangeError
from ..syntactic.classify import Q_LZG
from .base import Engine
from .dispatch import LZG_LADDER, build_first
from .kary import KaryEngine


class KaryLanguageEngine(KaryEngine):
    """Membership of a word outside Q_LZG: a k-ary tree over the syntactic
    monoid that takes letters. An update charges its own step and the levels
    it climbs, a query its own step and the top read."""

    kind = "language[kary]"
    STEP = 1

    def __init__(self, morphism, word):
        # the ids come from eta, so they need no Engine.__init__ check, and
        # the engine keeps no list of them
        self.word = list(word)
        self.n = len(self.word)
        self.size = morphism.target.size
        self._steps = 0
        self.ids = morphism.eta
        self._build(morphism.target, _letter_ids(morphism, self.word), None)
        accept = morphism.accept
        self._accepts = [v in accept for v in self.value]  # code -> membership bit
        # the top level's one code; an empty word reads as identity digits
        self._top = self.levels[-1] if self.levels else [
            self.semigroup.identity * sum(self._pow)]

    def query(self):
        """Membership bit for the current word."""
        self._steps += 2
        return self._accepts[self._top[0]]


class LanguageEngine(Engine):
    """The chunked facade over a Q_LZG word."""

    def __init__(self, morphism, stable, report, word):
        self.morphism = morphism
        self.stable = stable
        self.report = report
        self.word = list(word)
        self.n = len(self.word)
        self._steps = 0
        self.s = stable.index
        self._eta = morphism.eta
        self.blocks = self.n // self.s
        tag, self.inner = build_first(
            LZG_LADDER, stable.stable,
            _block_images(morphism, stable, _letter_ids(morphism, self.word), self.blocks))
        self.kind = f"language[{tag}]"
        self._bit = None  # the last membership bit, None once the word's value may change
        self._images, self._image = stable.block_images, stable.block_image
        self._block_steps = 1 + 2 * self.s  # the facade's step and the two block folds

    def update(self, pos, letter):
        if not (0 <= pos < self.n):
            raise PositionOutOfRange(f"position {pos} outside 0..{self.n - 1}")
        try:
            self._eta[letter]
        except (KeyError, TypeError):  # TypeError: an unhashable letter
            raise RangeError(f"letter {letter!r} not in the alphabet") from None
        word = self.word
        s = self.s
        b = pos // s
        if b < self.blocks:
            # the inner engine sees the block only when its image changes
            self._steps += self._block_steps
            lo = b * s
            block = word[lo : lo + s]
            # a seen block's image is one dict lookup; block_image folds the rest
            images = self._images
            old = images.get(tuple(block))
            if old is None:
                old = self._image(block)
            block[pos - lo] = letter
            img = images.get(tuple(block))
            if img is None:
                img = self._image(block)
            if img != old:
                self.inner.update(b, img)
                self._bit = None
        else:
            self._steps += 1
            if word[pos] != letter:
                self._bit = None  # tail letters are read verbatim at query time
        word[pos] = letter

    def query(self):
        """Membership bit for the current word."""
        self._steps += self.s + 1
        bit = self._bit
        if bit is not None:
            # the inner engine and the tail are as the kept bit saw them
            return bit
        m = self.morphism
        inner_val = self.inner.query()
        acc = None
        if inner_val is not None:
            acc = self.stable.inclusion[inner_val]
        for a in self.word[self.blocks * self.s :]:
            x = m.eta[a]
            acc = x if acc is None else m.target.table[acc][x]
        if acc is None:
            acc = m.target.identity
        self._bit = acc in m.accept
        return self._bit

    def _parts(self):
        return (self.inner,)


# The byte the bulk route's id table gives a character outside the alphabet;
# a monoid with fewer elements never has it as an id.
NOT_A_LETTER = 255


def _letter_ids(morphism, word):
    """The monoid ids of the letters of word, as a narrow numpy array: the
    bulk route when it applies and finds every letter, else the per-letter
    route, which alone raises."""
    ids = _bulk_letter_ids(morphism, word)
    return _each_letter_ids(morphism, word) if ids is None else ids


def _bulk_letter_ids(morphism, word):
    """The ids by one bytes.translate of the word's latin-1 text, or None.

    The route applies when the letters are str whose joined text encodes as
    latin-1, every letter has one character (the text has n, and no letter
    is empty), and the monoid has fewer than NOT_A_LETTER elements. It gives
    None also when a character is not a letter of the alphabet.
    """
    if morphism.target.size >= NOT_A_LETTER:
        return None
    try:
        raw = "".join(word).encode("latin-1")
    except (TypeError, UnicodeEncodeError):  # a letter not a str, or not latin-1
        return None
    if len(raw) != len(word) or not all(word):
        return None
    table = bytearray([NOT_A_LETTER]) * 256
    for a, v in morphism.eta.items():
        if isinstance(a, str) and len(a) == 1 and ord(a) < 256:
            table[ord(a)] = v
    raw = raw.translate(table)
    if NOT_A_LETTER in raw:
        return None
    return np.frombuffer(raw, dtype=np.uint8)


def _each_letter_ids(morphism, word):
    """The ids by one eta lookup per letter; RangeError names the first
    letter outside the alphabet, unhashable ones included."""
    eta = morphism.eta
    try:
        return np.fromiter(map(eta.__getitem__, word),
                           dtype=table_array(morphism.target).dtype, count=len(word))
    except (KeyError, TypeError):  # TypeError: an unhashable letter
        for a in word:
            try:
                eta[a]
            except (KeyError, TypeError):
                raise RangeError(f"letter {a!r} not in the alphabet") from None
        raise


def _block_images(morphism, stable, ids, blocks):
    """Stable ids of the first `blocks` length-s blocks of the letter ids:
    the s columns of the blocks folded left through the monoid table, then
    mapped through to_stable, all as whole-array steps."""
    cols = ids[: blocks * stable.index].reshape(blocks, stable.index)
    t = table_array(morphism.target)
    acc = cols[:, 0]
    for c in range(1, stable.index):
        acc = t[acc, cols[:, c]]
    size = morphism.target.size
    to_stable = np.full(size, -1, dtype=np.min_scalar_type(-size))
    to_stable[stable.inclusion] = np.arange(len(stable.inclusion))
    images = to_stable[acc]
    if (images < 0).any():
        raise InternalError("a block image lies outside the stable semigroup")
    return images


def make_language_engine(morphism, stable, report, word):
    """The chunked facade for a Q_LZG language, else one k-ary tree."""
    if report.cls == Q_LZG:
        return LanguageEngine(morphism, stable, report, word)
    return KaryLanguageEngine(morphism, word)
