"""Language engines: one k-ary tree over the letters, or stable-semigroup
chunking for Q_LZG.

Every language outside Q_LZG, and a Q_LZG one that dispatch.route
downgrades, is a KaryLanguageEngine (dispatch.py says why): a k-ary tree
over the syntactic monoid whose letter map is the alphabet map eta, so an
update is one call that checks the letter once, stores it in the one letter
list `word` and climbs with its id. A query reads the top code's accept bit
from a per-code list built once from the tree's value table.

A Q_LZG word is cut into blocks of s letters (s the stability index) plus a
tail of fewer than s letters. Every chunked engine keeps the word as block
codes (ChunkedEngine): a block's alphabet indices packed base |A|, its first
letter the most significant digit, one code per block in an array of the
narrowest typecode that holds |A|^s codes, and the tail as a list of
alphabet indices. Letters are alphabet indices, not monoid ids, since eta
need not be injective and snapshot() decodes the letters from the codes. A
code indexes the code table, code -> stable image of the block: a list
built once over every code while the word has at least EAGER_LETTERS
letters per code, else a dict that fills a missing code on first read by
folding its letters through the monoid table. Both read as img[code].

Two engines run on the codes. Where route picks zg, LanguageEngine runs a
zg engine over the block images. Where it picks window, the fused
WindowLanguageEngine keeps the plan's slot counts and packed key itself: it
reads a block's neighbour images from the code table, moves the key by the
plan's deltas, and answers from one recovery lookup.

Membership composes the blocks' evaluation with the tail's value in the
syntactic monoid and tests the accept set, by one list of accept bits, one
per stable element, kept until a tail letter changes. Both engines keep
their last membership bit. An edit clears it only when it changes its
block's image, or changes a tail letter (one at pos >= blocks * s, which is
every letter when n < s). A query on a kept bit charges only the engine's
own s + 1 steps: op_count counts the work that ran. An edit that writes the
letter already there takes the same path, and keeps its block's image.
Neither engine stops early on such an edit.

Both charge the facade's steps: a block edit 1 + 2s (its own step and the
two block reads), a tail edit 1, a query s + 1. LanguageEngine adds its
zg engine's op_count; the fused engine adds what a WindowStatsEngine
over the block images charges, 4 per block edit that changes the image and
nslots + 1 per query that evaluates a word with a block.

The k-ary engine builds from the letters' monoid ids (_letter_ids), the
chunked engines from their alphabet indices (_alphabet_indices), each taken
by one of two routes. The bulk route applies when every letter is a
one-character str whose text encodes as latin-1 and the values are fewer
than 255: the encoded text goes through one bytes.translate with a
256-entry table, where byte 255 marks a character outside the alphabet.
Every other word, and every word in which that byte appears, takes the
per-letter route, one dict lookup per letter, which alone raises
RangeError; so both routes give the same values, dtype and errors.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..algebra.core import table_array
from ..errors import InternalError, PositionOutOfRange, RangeError
from ..syntactic.classify import Q_LZG
from .base import Engine
from .dispatch import route
from .kary import KaryEngine
from .windowstats import _word_counts
from .zg import make_zg_engine

# The code table is a list over every code, built up front, while the word
# has at least EAGER_LETTERS letters per code (so the list's 8 B pointers
# come to at most a byte per letter); past that it is a dict filled on first
# read. A list read took 24 ns less than the dict's.
EAGER_LETTERS = 8


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


class ChunkedEngine(Engine):
    """The block-code layer of a Q_LZG word: the letter check, the codes and
    the tail, the code table, the accept bits and snapshot(). Subclasses
    call _build from __init__ and keep the block images' evaluation."""

    def _build(self, morphism, stable, word):
        """Codes, tail and code table of word; returns the block images, one
        stable id per block, for the subclass's own state."""
        self.morphism = morphism
        self.stable = stable
        self.n = n = len(word)
        self.s = s = stable.index
        self.blocks = blocks = n // s
        self._steps = 0
        self.letters = letters = list(morphism.eta)  # alphabet index -> letter
        self._index = {a: i for i, a in enumerate(letters)}
        self._base = base = len(letters)
        self._places = [base ** (s - 1 - r) for r in range(s)]  # digit r's place in a code
        self._block_steps = 1 + 2 * s  # the facade's step and the two block reads
        self._bit = None  # the last membership bit, None once the word's value may change
        self._accepts = None  # the accept bits, None once a tail letter changed
        self._ids = ids = [morphism.eta[a] for a in letters]  # alphabet index -> monoid id
        indices = _alphabet_indices(self._index, word)
        self.tail = indices[blocks * s :].tolist()
        ncodes = base**s
        codes = _pack(indices[: blocks * s].reshape(blocks, s), base, ncodes)
        self.codes = _code_store(codes)
        if ncodes * EAGER_LETTERS > n:
            self._img = _CodeTable(morphism, stable, ids, self._places, base)
            ids = np.array(ids, dtype=table_array(morphism.target).dtype)
            return _block_images(morphism, stable, ids[indices], blocks)
        self._img = _code_images(morphism, stable, ids)
        return np.array(self._img, dtype=np.min_scalar_type(len(stable.inclusion) - 1))[codes]

    def _letter(self, pos, letter):
        """The alphabet index of letter, after the position and letter checks."""
        if not (0 <= pos < self.n):
            raise PositionOutOfRange(f"position {pos} outside 0..{self.n - 1}")
        try:
            return self._index[letter]
        except (KeyError, TypeError):  # TypeError: an unhashable letter
            raise RangeError(f"letter {letter!r} not in the alphabet") from None

    def _tail_write(self, pos, a):
        """A tail edit: one step; the kept bit and the accept bits go once
        the letter changes, since tail letters are read at query time."""
        self._steps += 1
        tail, t = self.tail, pos - self.blocks * self.s
        if tail[t] != a:
            tail[t] = a
            self._bit = self._accepts = None

    def _accept_list(self):
        """Accept bits by the blocks' evaluation: entry x for stable element
        x, whether x times the tail's value is in the language, and one more
        last, for a word with no blocks, whether the tail alone is."""
        m = self.morphism
        t, ids = m.target.table, self._ids
        v = m.target.identity
        for a in self.tail:
            v = t[v][ids[a]]
        accept = m.accept
        self._accepts = [t[x][v] in accept for x in self.stable.inclusion] + [v in accept]
        return self._accepts

    def snapshot(self):
        letters, places, base = self.letters, self._places, self._base
        return tuple(letters[code // p % base] for code in self.codes for p in places) + tuple(
            letters[a] for a in self.tail)


class LanguageEngine(ChunkedEngine):
    """The zg kind: block codes over a zg engine of the block images."""

    kind = "language[zg]"

    def __init__(self, morphism, stable, word):
        images = self._build(morphism, stable, word)
        self.inner = make_zg_engine(stable.stable, images)

    def update(self, pos, letter):
        a = self._letter(pos, letter)
        s = self.s
        b = pos // s
        if b >= self.blocks:
            self._tail_write(pos, a)
            return
        # the zg engine sees the block only when its image changes
        self._steps += self._block_steps
        codes, img = self.codes, self._img
        code = codes[b]
        place = self._places[pos - b * s]
        new = codes[b] = code + (a - code // place % self._base) * place
        cur = img[new]
        if img[code] != cur:
            self.inner.update(b, cur)
            self._bit = None

    def query(self):
        """Membership bit for the current word."""
        self._steps += self.s + 1
        bit = self._bit
        if bit is None:
            # the zg engine and the tail are as the kept bit saw them
            val = self.inner.query()
            bit = self._bit = (self._accepts or self._accept_list())[-1 if val is None else val]
        return bit

    def _parts(self):
        return (self.inner,)


class WindowLanguageEngine(ChunkedEngine):
    """The fused window kind: block codes and the window plan's counts and
    packed key, with no inner engine and no per-letter list."""

    kind = "language[window]"

    def __init__(self, morphism, stable, word, plan):
        images = self._build(morphism, stable, word)
        self.plan = plan
        self.semigroup = stable.stable
        self.counts = _word_counts(stable.stable, images, plan.nslots)
        self.code = plan.pack(self.counts)
        self._recover_steps = plan.nslots + 1

    def update(self, pos, letter):
        a = self._letter(pos, letter)
        s = self.s
        b = pos // s
        if b >= self.blocks:
            self._tail_write(pos, a)
            return
        self._steps += self._block_steps
        codes, img = self.codes, self._img
        code = codes[b]
        place = self._places[pos - b * s]
        new = codes[b] = code + (a - code // place % self._base) * place
        old, cur = img[code], img[new]
        if old == cur:
            return
        self._steps += 4  # what a WindowStatsEngine's update charges
        self._bit = None
        prev = img[codes[b - 1]] + 1 if b else 0
        nxt = img[codes[b + 1]] + 1 if b + 1 < self.blocks else 0
        self.code = self.plan.shift(self.semigroup, self.counts, self.code, prev, old, cur, nxt)

    def query(self):
        """Membership bit for the current word."""
        self._steps += self.s + 1
        bit = self._bit
        if bit is None:
            accepts = self._accepts or self._accept_list()
            if self.blocks:
                self._steps += self._recover_steps
                plan, img, codes = self.plan, self._img, self.codes
                bit = accepts[plan.recovery[
                    self.code + img[codes[-1]] * plan.last_place + img[codes[0]] * plan.first_place]]
            else:
                bit = accepts[-1]
            self._bit = bit
        return bit


def _pack(cols, base, ncodes):
    """The code of each row of alphabet indices, first column the most
    significant digit, by Horner's rule in place, in the narrowest dtype
    that holds ncodes codes (Python ints past 64 bits)."""
    codes = cols[:, 0].astype(np.min_scalar_type(ncodes - 1))
    for c in range(1, cols.shape[1]):
        codes *= base
        codes += cols[:, c]
    return codes


_TYPECODES = {np.dtype(dtype): typecode for dtype, typecode in (
    (np.uint8, "B"), (np.uint16, "H"), (np.uint32, "I"), (np.uint64, "Q"))}


def _code_store(codes):
    """The codes in an array of their dtype's width; a list of ints past 64 bits."""
    typecode = _TYPECODES.get(codes.dtype)
    return codes.tolist() if typecode is None else array(typecode, codes.tobytes())


def _code_images(morphism, stable, ids):
    """The stable image of every code, in code order: the monoid values of
    the one-letter codes, extended by one letter s - 1 times, a code's
    value followed by each letter in index order."""
    t = morphism.target.table
    vals = ids
    for _ in range(stable.index - 1):
        vals = [t[v][x] for v in vals for x in ids]
    to_stable = stable.to_stable
    return [to_stable[v] for v in vals]


class _CodeTable(dict):
    """code -> stable image of the block, each code filled on first read by
    folding its letters' monoid ids, first letter first, through the monoid
    table: one entry per distinct block read, held here alone."""

    def __init__(self, morphism, stable, ids, places, base):
        super().__init__()
        self._table, self._identity = morphism.target.table, morphism.target.identity
        self._to_stable, self._ids, self._places, self._base = stable.to_stable, ids, places, base

    def __missing__(self, code):
        t, ids, base = self._table, self._ids, self._base
        v = self._identity
        for p in self._places:
            v = t[v][ids[code // p % base]]
        img = self[code] = self._to_stable[v]
        return img


# The byte the bulk route's id table gives a character outside the alphabet;
# a monoid with fewer elements never has it as an id.
NOT_A_LETTER = 255


def _letter_ids(morphism, word):
    """The monoid ids of the letters of word."""
    return _mapped(morphism.eta, morphism.target.size, word)


def _alphabet_indices(index, word):
    """The alphabet indices of the letters of word, by index: letter -> index."""
    return _mapped(index, len(index), word)


def _mapped(values, bound, word):
    """The values of the letters of word, by values: letter -> int below
    bound, as a numpy array of the narrowest dtype that holds bound values:
    the bulk route when it applies and finds every letter, else the
    per-letter route, which alone raises."""
    out = _bulk_values(values, bound, word)
    return _each_value(values, bound, word) if out is None else out


def _bulk_values(values, bound, word):
    """The values by one bytes.translate of the word's latin-1 text, or None.

    The route applies when the letters are str whose joined text encodes as
    latin-1, every letter has one character (the text has n, and no letter
    is empty), and bound is below NOT_A_LETTER. It gives None also when a
    character is not a letter of the alphabet.
    """
    if bound >= NOT_A_LETTER:
        return None
    try:
        raw = "".join(word).encode("latin-1")
    except (TypeError, UnicodeEncodeError):  # a letter not a str, or not latin-1
        return None
    if len(raw) != len(word) or not all(word):
        return None
    table = bytearray([NOT_A_LETTER]) * 256
    for a, v in values.items():
        if isinstance(a, str) and len(a) == 1 and ord(a) < 256:
            table[ord(a)] = v
    raw = raw.translate(table)
    if NOT_A_LETTER in raw:
        return None
    return np.frombuffer(raw, dtype=np.uint8)


def _each_value(values, bound, word):
    """The values by one lookup per letter; RangeError names the first
    letter outside the alphabet, unhashable ones included."""
    try:
        return np.fromiter(map(values.__getitem__, word),
                           dtype=np.min_scalar_type(bound - 1), count=len(word))
    except (KeyError, TypeError):  # TypeError: an unhashable letter
        for a in word:
            try:
                values[a]
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
    """One k-ary tree outside Q_LZG. In Q_LZG, what dispatch.route picks
    for the stable semigroup: the zg facade, the fused window engine, or
    the k-ary tree of kind language[kary-downgraded]."""
    tag, plan = route(stable.stable, window=True) if report.cls == Q_LZG else ("kary", None)
    if tag == "zg":
        return LanguageEngine(morphism, stable, word)
    if tag == "window":
        return WindowLanguageEngine(morphism, stable, word, plan)
    engine = KaryLanguageEngine(morphism, word)
    engine.kind = f"language[{tag}]"
    return engine
