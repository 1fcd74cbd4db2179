"""Language engines: letters kept as block codes, under a k-ary tree
outside Q_LZG and under stable-semigroup chunking in Q_LZG.

Every language engine keeps the word as block codes (ChunkedEngine): a
block of s letters is its alphabet indices packed base |A|, its first
letter the most significant digit, one code per block in an array of the
narrowest typecode that holds |A|^s codes; the tail of r < s letters is
one code too, packed the same way in r digits. Letters are alphabet
indices, not monoid ids, since eta need not be injective and snapshot()
decodes the letters from the codes. A code indexes the code table, code ->
the block's value: its monoid value for the k-ary engine, its stable image
in Q_LZG. The table is a list built once over every code while the word
has at least EAGER_LETTERS letters per code, else a dict that fills a
missing code on first read by folding its letters through the monoid
table. Both read as img[code]. No engine keeps a list of the letters.

One rule sets s for every engine: block_length(|A|, n), in Q_LZG rounded
down to a multiple of the stability index i and at least i. stable_data
stops once eta(A^i) is idempotent as a set, so eta(A^ki) = eta(A^i) for
every k >= 1: a block of any multiple of i letters has its image in the
stable semigroup. The code table is the list unless i alone makes
|A|^s * EAGER_LETTERS > n.

One rule sets the charges. A code is below n, one word of the word RAM, so
a code or table read is one step. An update charges 2, its own step and
one read (its block's code value, or on a tail edit the tail's value or
the letter's); a query charges 2, its own step and one read. Each engine
adds what its evaluation runs: the k-ary tree one per level it climbs; the
zg kind its zg engine's op_count; the window kind 4 per block edit that
changes the block's image and nslots + 1 per query that evaluates a word
with a block, what a WindowStatsEngine update and query charge. No charge
grows with n but the climb.

Every language outside Q_LZG, and a Q_LZG one that dispatch.route
downgrades, is a KaryLanguageEngine (dispatch.py says why). kary.plant
plants its k-ary tree over the monoid (k = branching(|M|, n)), whose leaves
are the blocks' values, then one per tail letter, as it plants KaryEngine's.
An update rewrites its block's code and reads the old and new codes'
values, or a tail letter's old and new monoid ids; only when the leaf's
value changes does it climb, with those two values, as KaryEngine.update
does, and charge the climb as that does. The climb loop is written here
again, inline, not shared with KaryEngine: a shared climb function measured
slower on edit-kary (kary.py). A query reads the top code's value and one
accept bit, one per monoid element.

In Q_LZG, where route picks zg, LanguageEngine runs a zg engine over the
block images. Where it picks window, WindowLanguageEngine runs the verified
plan on the block images itself, whatever its cap, with no inner engine;
windowstats.WindowStatsEngine is the reference it is tested against. It
keeps the plan's exact slot counts as fields of one int x, slot i's count
at bit i * w with w = blocks.bit_length() + 1: a count is at most blocks,
so the top bit of each field, its guard bit, stays clear. An update runs
in one frame: the position and letter checks, the code write and, when the
block's image changes, one add to x of the delta of the block's neighbour
images, each net slot change at its field. Above the fields sits _ends,
the last block's image plus the first block's times the plan's
first_place // last_place, refreshed only when the image of block 0 or of
the last block changes. Counts are capped only when a query reads a key.
For a plan of presence bits (threshold 1, period 1) the key is one SWAR
test, (x + M) & H, with 2^(w-1) - 1 in every field of M and the guard bits
in H: a field's guard bit is set exactly when its count is not 0. For a
counted plan the key is the nslots fields decoded and packed by plan.pack.
A query on a cleared bit reads its key in the engine's own dict, _evals,
and on a miss packs the key in the plan's layout and reads it once through
plan.evaluation, the plan's one lookup: the recovery entry, or for a key
that shows the stable semigroup's zero, which the plan search does not
keep, the zero (windowstats.py, the zero rule).

Q_LZG membership composes the blocks' evaluation with the tail's value in
the syntactic monoid and tests the accept set, by one list of accept bits,
one per stable element, kept until a tail letter changes. The tail's value
is kept current: a tail edit rewrites one digit of the tail's code and
reads its value in a table over the r-letter codes, a list or a dict as
the block code table is (none when r = 0), so no query folds the tail.
Both engines keep their last membership bit. An edit clears it only when
it changes its block's image, or changes a tail letter (one at pos >=
blocks * s, which is every letter when n < s). A query on a kept bit
charges only its 2: op_count counts the work that ran. An edit that writes
the letter already there takes the same path, keeps its block's image, and
stops no earlier.

Every engine builds from the letters' alphabet indices (_mapped), taken by
one of two routes. The bulk route applies when every letter is a
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

from ..algebra.core import adjoin_identity, table_array
from ..errors import InternalError, PositionOutOfRange, RangeError
from ..syntactic.classify import Q_LZG
from .base import Engine
from .dispatch import route
from .kary import plant, stop_charge
from .windowstats import _slot_delta, _word_counts
from .zg import make_zg_engine

# The code table is a list over every code, built up front, while the word
# has at least EAGER_LETTERS letters per code (so the list's 8 B pointers
# come to at most a byte per letter); past that it is a dict filled on first
# read. A list read took 24 ns less than the dict's.
EAGER_LETTERS = 8


class ChunkedEngine(Engine):
    """The block-code layer: the letter check, the codes and the tail, the
    code table and snapshot(). Subclasses call _build from __init__ and keep
    the blocks' evaluation; the Q_LZG ones (_build_stable) also keep the
    tail's value and accept bits."""

    def _build(self, morphism, word, unit, image):
        """Codes, tail and code table of word in blocks of s letters, s the
        block_length rounded down to a multiple of unit and at least unit,
        the table giving a block of monoid value v the value image[v] (image
        a list, or None for v itself); returns those block values as an
        array, for the subclass's own state."""
        self.morphism = morphism
        self.n = n = len(word)
        letters = list(morphism.eta)
        self._base = base = len(letters)
        self.s = s = unit * max(block_length(base, n) // unit, 1)
        self.blocks = blocks = n // s
        self._steps = 0
        self._index = {a: i for i, a in enumerate(letters)}
        self._places = [base ** (s - 1 - r) for r in range(s)]  # digit r's place in a code
        self._ids = [morphism.eta[a] for a in letters]  # alphabet index -> monoid id
        indices = _mapped(self._index, base, word)
        tail = indices[blocks * s :].tolist()
        self._tail = sum(a * p for a, p in zip(tail, self._places[s - len(tail) :]))
        ncodes = base**s
        codes = _pack(indices[: blocks * s].reshape(blocks, s), base, ncodes)
        self.codes = _code_store(codes)
        t = table_array(morphism.target)
        ids = np.array(self._ids, dtype=t.dtype)
        if ncodes * EAGER_LETTERS > n:
            self._img = _CodeTable(morphism, image, self._ids, self._places, base)
            return _block_values(t, image, ids[indices[: blocks * s].reshape(blocks, s)])
        values = _code_values(t, image, ids, s)
        self._img = values.tolist()
        return values[codes]

    def _build_stable(self, morphism, sd, word):
        """_build in blocks of a multiple of the stability index, each to its
        stable image."""
        self.stable = sd
        self._bit = None  # the last membership bit, None once the word's value may change
        self._accepts = None  # the accept bits, None once a tail letter changed
        image = [-1] * morphism.target.size  # monoid id -> stable id, -1 outside it
        for x, v in enumerate(sd.inclusion):
            image[v] = x
        values = self._build(morphism, word, sd.index, image)
        r = self.n - self.blocks * self.s
        if r:
            self._tail_img = _value_table(morphism, self._ids, self._places[self.s - r :], self.n)
            self._tail_value = self._tail_img[self._tail]
        else:  # no tail, no table
            self._tail_img, self._tail_value = None, morphism.target.identity
        return values

    @property
    def letters(self):
        """The alphabet's letters, by alphabet index."""
        return list(self.morphism.eta)

    def _tail_indices(self):
        """The tail's alphabet indices, decoded from its code."""
        base, r = self._base, self.n - self.blocks * self.s
        return [self._tail // p % base for p in self._places[self.s - r :]]

    def _letter(self, pos, letter):
        """The alphabet index of letter, after the position and letter checks."""
        if not (0 <= pos < self.n):
            raise PositionOutOfRange(f"position {pos} outside 0..{self.n - 1}")
        try:
            return self._index[letter]
        except (KeyError, TypeError):  # TypeError: an unhashable letter
            raise RangeError(f"letter {letter!r} not in the alphabet") from None

    def _tail_write(self, pos, a):
        """A tail edit: its step, and the tail's value read by its new code;
        the kept bit and the accept bits go once the letter changes, since
        the tail's value is read at query time."""
        self._steps += 2
        place = self._places[pos - self.n + self.s]
        code = self._tail
        new = code + (a - code // place % self._base) * place
        if new != code:
            self._tail = new
            self._tail_value = self._tail_img[new]
            self._bit = self._accepts = None

    def _accept_list(self):
        """Accept bits by the blocks' evaluation: entry x for stable element
        x, whether x times the tail's value is in the language, and one more
        last, for a word with no blocks, whether the tail alone is."""
        m = self.morphism
        t, v = m.target.table, self._tail_value
        accept = m.accept
        self._accepts = [t[x][v] in accept for x in self.stable.inclusion] + [v in accept]
        return self._accepts

    def snapshot(self):
        letters, places, base = self.letters, self._places, self._base
        return tuple(letters[code // p % base] for code in self.codes for p in places) + tuple(
            letters[a] for a in self._tail_indices())


class KaryLanguageEngine(ChunkedEngine):
    """Membership of a word outside Q_LZG: a k-ary tree over the monoid
    values of its blocks, then of its tail letters."""

    kind = "language[kary]"

    def __init__(self, morphism, word):
        monoid = adjoin_identity(morphism.target)
        values = self._build(morphism, word, 1, None)
        tail = np.array([self._ids[a] for a in self._tail_indices()], dtype=values.dtype)
        plant(self, monoid, np.concatenate([values, tail]), self.n)
        # the top level's one code; an empty word reads as identity digits
        self._top = self.levels[-1] if self.levels else [monoid.identity * sum(self._pow)]
        accept = morphism.accept
        self._accepts = [v in accept for v in range(monoid.size)]  # monoid value -> membership bit

    def update(self, pos, letter):
        if not (0 <= pos < self.n):
            raise PositionOutOfRange(f"position {pos} outside 0..{self.n - 1}")
        try:
            a = self._index[letter]
        except (KeyError, TypeError):  # TypeError: an unhashable letter
            raise RangeError(f"letter {letter!r} not in the alphabet") from None
        s = self.s
        j = pos // s
        if j < self.blocks:
            codes, img = self.codes, self._img
            code = codes[j]
            place = self._places[pos - j * s]
            new = codes[j] = code + (a - code // place % self._base) * place
            old, v = img[code], img[new]
        else:
            # each tail letter is a leaf of its own, after the blocks
            place = self._places[pos - self.n + s]
            code = self._tail
            was = code // place % self._base
            self._tail = code + (a - was) * place
            old, v = self._ids[was], self._ids[a]
            j += pos - j * s
        if old == v:
            self._steps += 2
            return
        k, pw, value, shared, levels = self.k, self._pow, self.value, self._shared, self.levels
        for codes in levels:
            d = pw[j % k]
            j //= k
            code = codes[j]
            new = codes[j] = shared[code + (v - old) * d]
            old, v = value[code], value[new]
            if old == v:
                self._steps += 2 + stop_charge(levels, codes)
                return
        self._steps += 2 + len(levels)

    def query(self):
        """Membership bit for the current word."""
        self._steps += 2
        return self._accepts[self.value[self._top[0]]]


def block_length(base, n):
    """The largest s >= 1 with base^s * EAGER_LETTERS <= n and s < n.bit_length():
    the first bound keeps the code table within a pointer per EAGER_LETTERS
    letters, the second keeps s near log2 n where the first never binds
    (base = 1)."""
    s = 1
    while base ** (s + 1) * EAGER_LETTERS <= n and s + 1 < n.bit_length():
        s += 1
    return s


class LanguageEngine(ChunkedEngine):
    """The zg kind: block codes over a zg engine of the block images."""

    kind = "language[zg]"

    def __init__(self, morphism, sd, word):
        images = self._build_stable(morphism, sd, word)
        self.inner = make_zg_engine(sd.stable, images)

    def update(self, pos, letter):
        a = self._letter(pos, letter)
        s = self.s
        b = pos // s
        if b >= self.blocks:
            self._tail_write(pos, a)
            return
        # the zg engine sees the block only when its image changes
        self._steps += 2
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
        self._steps += 2
        bit = self._bit
        if bit is None:
            # the zg engine and the tail are as the kept bit saw them
            val = self.inner.query()
            bit = self._bit = (self._accepts or self._accept_list())[-1 if val is None else val]
        return bit

    def _parts(self):
        return (self.inner,)


class WindowLanguageEngine(ChunkedEngine):
    """The window kind: block codes and the plan's exact slot counts as
    fields of one int, with no inner engine and no per-letter list. An
    update runs in one frame: the checks, the code write and, when the
    block's image changes, one add of its delta. A query caps the counts:
    by one SWAR test for presence bits, else field by field; _ends holds
    the part of the key that the end blocks give, kept across edits
    elsewhere."""

    kind = "language[window]"

    def __init__(self, morphism, sd, word, plan):
        images = self._build_stable(morphism, sd, word)
        self.plan = plan
        self._size = sd.stable.size
        nslots = plan.nslots
        # a count is at most blocks, so each field's top bit, its guard bit, stays clear
        self._w = w = self.blocks.bit_length() + 1
        counts = _word_counts(sd.stable, images, nslots)
        self._x = sum(c << (i * w) for i, c in enumerate(counts))
        # the SWAR test's masks for presence bits; a counted plan has none
        ones = sum(1 << (i * w) for i in range(nslots)) if plan.radix == 2 else 0
        self._m = ones * ((1 << (w - 1)) - 1)
        self._h = ones << (w - 1)
        # the end blocks' part, above the fields: the last block's image, plus
        # the first block's in plans with `first`
        self._last_at = 1 << (nslots * w)
        self._first_at = plan.first_place // plan.last_place << (nslots * w)
        self._deltas = {}  # update's key of the 4 images -> its slot changes as one int
        # read from the images so that a dict code table stays unread
        if len(images):
            self._ends = int(images[-1]) * self._last_at + int(images[0]) * self._first_at
            # query's key -> evaluation, filled from plan.evaluation on first read
            self._evals = {}
            self._eval_steps = 2 + nslots + 1
        else:  # no block: the key is 0, and its one entry reads the tail's bit
            self._ends, self._evals, self._eval_steps = 0, {0: -1}, 2

    @property
    def semigroup(self):
        """The stable semigroup, whose images the plan's slots count."""
        return self.stable.stable

    def update(self, pos, letter):
        if not (0 <= pos < self.n):
            raise PositionOutOfRange(f"position {pos} outside 0..{self.n - 1}")
        try:
            a = self._index[letter]
        except (KeyError, TypeError):  # TypeError: an unhashable letter
            raise RangeError(f"letter {letter!r} not in the alphabet") from None
        s = self.s
        b = pos // s
        if b >= self.blocks:
            self._tail_write(pos, a)
            return
        codes, img = self.codes, self._img
        code = codes[b]
        place = self._places[pos - b * s]
        new = codes[b] = code + (a - code // place % self._base) * place
        old, cur = img[code], img[new]
        if old == cur:
            self._steps += 2
            return
        self._steps += 6  # 2 and the 4 a WindowStatsEngine update charges
        self._bit = None
        last = self.blocks - 1
        prev = img[codes[b - 1]] + 1 if b else 0
        nxt = img[codes[b + 1]] + 1 if b < last else 0
        size = self._size
        key = ((prev * (size + 1) + nxt) * size + old) * size + cur
        try:
            self._x += self._deltas[key]
        except KeyError:
            self._x += self._delta(key, prev, old, cur, nxt)
        if b == 0 or b == last:
            self._ends = img[codes[-1]] * self._last_at + img[codes[0]] * self._first_at

    def _delta(self, key, prev, old, cur, nxt):
        """The net slot changes of the edit as one int, each change at its
        slot's field; kept in _deltas."""
        w = self._w
        delta = self._deltas[key] = sum(d << (slot * w) for slot, d in _slot_delta(
            self.semigroup, prev - 1 if prev else None, old, cur, nxt - 1 if nxt else None))
        return delta

    def query(self):
        """Membership bit for the current word."""
        bit = self._bit
        if bit is None:
            self._steps += self._eval_steps
            h = self._h
            # presence bits: the key by one SWAR test, packed on its first
            # read; counts: decoded and capped at every read
            key = ((self._x + self._m) & h) + self._ends if h else self._packed()
            try:
                ev = self._evals[key]
            except KeyError:
                ev = self._evals[key] = self.plan.evaluation(self._packed() if h else key)
            bit = self._bit = (self._accepts or self._accept_list())[ev]
        else:
            self._steps += 2
        return bit

    def _packed(self):
        """The plan's key of the word: the nslots fields decoded and packed
        by plan.pack, the end blocks' part moved to the plan's last_place."""
        plan, w, x = self.plan, self._w, self._x
        top, mask = plan.nslots * w, (1 << w) - 1
        return plan.pack([x >> (i * w) & mask for i in range(plan.nslots)]) + (self._ends >> top) * plan.last_place


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


def _code_values(t, image, ids, s):
    """The table value of every s-letter code, in code order, as an array:
    the one-letter codes' monoid ids, extended by one letter s - 1 times, a
    code's value followed by each letter in index order, then mapped through
    image."""
    vals = ids
    for _ in range(s - 1):
        vals = t[vals[:, None], ids].ravel()
    return _imaged(image, vals)


def _value_table(morphism, ids, places, n):
    """code -> monoid value of every code of len(places) letters, ids the
    letters' monoid ids: a list built up front while n has at least
    EAGER_LETTERS letters per code, else a _CodeTable, as for the blocks."""
    base = len(ids)
    if base ** len(places) * EAGER_LETTERS > n:
        return _CodeTable(morphism, None, ids, places, base)
    t = table_array(morphism.target)
    return _code_values(t, None, np.array(ids, dtype=t.dtype), len(places)).tolist()


def _block_values(t, image, cols):
    """The table value of each row of monoid ids: the columns folded left
    through the monoid table t, then mapped through image, all as
    whole-array steps."""
    acc = cols[:, 0]
    for c in range(1, cols.shape[1]):
        acc = t[acc, cols[:, c]]
    return _imaged(image, acc)


def _imaged(image, vals):
    """The monoid values vals mapped through image; None maps each to itself."""
    if image is None:
        return vals
    out = np.array(image, dtype=np.min_scalar_type(-len(image)))[vals]
    if (out < 0).any():
        raise InternalError("a block image lies outside the stable semigroup")
    return out


class _CodeTable(dict):
    """code -> table value of the block, each code filled on first read by
    folding its letters' monoid ids, first letter first, through the monoid
    table, then mapped through image (None: the monoid value itself): one
    entry per distinct block read, held here alone. A value that image maps
    to -1 raises InternalError, as _imaged does for the list table."""

    def __init__(self, morphism, image, ids, places, base):
        super().__init__()
        self._table, self._identity = morphism.target.table, morphism.target.identity
        self._image, self._ids, self._places, self._base = image, ids, places, base

    def __missing__(self, code):
        t, ids, base = self._table, self._ids, self._base
        v = self._identity
        for p in self._places:
            v = t[v][ids[code // p % base]]
        if self._image is not None:
            v = self._image[v]
            if v < 0:
                raise InternalError("a block image lies outside the stable semigroup")
        self[code] = v
        return v


# The byte the bulk route's id table gives a character outside the alphabet;
# a monoid with fewer elements never has it as an id.
NOT_A_LETTER = 255


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


def make_language_engine(morphism, sd, report, word):
    """One k-ary tree outside Q_LZG. In Q_LZG, what dispatch.route picks
    for the stable semigroup: the zg facade, the window engine with its
    plan, or the k-ary tree of kind language[kary-downgraded]."""
    tag, plan = route(sd.stable) if report.cls == Q_LZG else ("kary", None)
    if tag == "window":
        return WindowLanguageEngine(morphism, sd, word, plan)
    if tag == "zg":
        return LanguageEngine(morphism, sd, word)
    engine = KaryLanguageEngine(morphism, word)
    engine.kind = f"language[{tag}]"
    return engine
