"""Labeled van Emde Boas predecessor structure with linear-time build.

Layout: keys live in 1..span. An outer array T of size span+1 holds the
labels directly, keys are grouped into buckets of width ceil(log2 log2 span),
and a classic recursive vEB over the bucket indices answers prev/next across
buckets. Key x lies in bucket ceil(x / width), one integer division. This
brings both memory and initialization down to O(span) while keeping all
operations O(log log span).

Labels: a label is an int in 0..LABEL_MAX, which is all the engines store
(semigroup element ids, prefix ids, a run layer's 1). T is a bytearray
whose cell holds label + 1, 0 meaning absent, so a present key is a nonzero
cell and a label is a few bits of one cell, as in the word-RAM model. The
first label past 254 widens T once to an array('I') of unsigned ints; it
stays wide. Any other label raises VebError naming it. The bucket counts are
a bytearray too, since a count never exceeds the width, at most 6.

The recursive tree bottoms out at universes of at most 64 in a single machine
word (Python int) scanned with bit tricks.

Build: VebMap.build takes strictly increasing keys and their labels and
inserts them one at a time, in increasing order, so the built map is the one
that insert gives. A bucket's first key inserts the bucket into the summary
vEB. There are span / width buckets and each such insert visits
O(log log span) nodes, so the build stays O(span).

probes counts memory-cell-level accesses; writes counts cells written during
construction. Both exist so tests can assert the complexity claims. The
build charges writes (the label and bucket arrays, plus two per key) but no
probes. How the operations charge probes:

- insert and delete: 2 (the label cell and the bucket count) plus the
  summary vEB's probes when a bucket turns non-empty or empty; retrieve and
  update: 1.
- find_prev/find_next read label cells one at a time from the key towards
  the end of its bucket and charge one probe per cell read: a hit at
  distance d costs d + 1, a miss the whole rest of the bucket. A miss then
  adds the summary vEB's probes and the cells read in the bucket it names,
  again up to and including the hit. find_prev below 1 and find_next above
  span answer None at once (0 probes); a key past the other end is clamped
  to 1..span first.
- In the summary vEB every node visited costs 1; a _Node's min and max are
  kept at the node and cost nothing more to read, a bitmask leaf's cost 1.

The scans add the cells read in one step, not one by one, so the counts are
those of a cell-by-cell scan at a fraction of its interpreter cost.

Keys: every operation takes an int key, or a numpy integer as the int it
equals; any other key, 2.5, 3.0 or "3", raises KeyRangeError before a probe
is charged or a cell read.
"""

from __future__ import annotations

import math
from array import array
from operator import index

import numpy as np

from .errors import (DuplicateKey, InternalError, KeyOrderError, KeyRangeError, MissingKey,
                     VebError)
from .memo import memo

LABEL_MAX = 2 ** (8 * array("I").itemsize) - 2   # the widest label cell holds label + 1


def _label_error(label):
    return VebError(f"label {label!r} is not an int in 0..{LABEL_MAX}")


def _items(seq):
    """The items of a sequence; a numpy array's as Python numbers, read one
    at a time through its buffer."""
    return seq.data if isinstance(seq, np.ndarray) else seq


def _key(key):
    """key as an int: a numpy integer as the int it equals, since bucket
    indices must be ints; a float, 3.0 too, or a str is no key and raises
    KeyRangeError. Every operation calls it on a key that is not an int."""
    try:
        return index(key)
    except TypeError:
        raise KeyRangeError(f"key {key!r} is not an integer") from None


def _widened(cells):
    """The byte label cells as unsigned int cells, same values."""
    return array("I", np.frombuffer(cells, dtype=np.uint8).astype(np.uintc).tobytes())


class _Bits:
    """Bitmask leaf for universes of size <= 64."""

    __slots__ = ("mask",)

    def __init__(self):
        self.mask = 0

    def insert(self, x, owner):
        owner.probes += 1
        self.mask |= 1 << x

    def delete(self, x, owner):
        owner.probes += 1
        self.mask &= ~(1 << x)

    def first(self, owner):
        owner.probes += 1
        m = self.mask
        if m == 0:
            return None
        return (m & -m).bit_length() - 1

    def last(self, owner):
        owner.probes += 1
        if self.mask == 0:
            return None
        return self.mask.bit_length() - 1

    def pred_lt(self, x, owner):
        owner.probes += 1
        m = self.mask & ((1 << x) - 1)
        if m == 0:
            return None
        return m.bit_length() - 1

    def succ_gt(self, x, owner):
        owner.probes += 1
        m = self.mask >> (x + 1)
        if m == 0:
            return None
        return (m & -m).bit_length() - 1 + x + 1


class _Node:
    """Classic vEB node over universe 2**bits (bits > 6).

    min and max are stored at the node, so first()/last() read them without
    a probe, while a _Bits leaf charges one; both kinds answer the same
    calls, so no step dispatches on the node type.

    Every cluster starts out as the shared empty node of its size (see
    _empty), which answers reads as a fresh empty node would; insert puts a
    node of its own in its place before it writes a key to it.
    """

    __slots__ = ("bits", "lo_bits", "lo_mask", "min", "max", "summary", "clusters")

    def __init__(self, bits):
        self.bits = bits
        self.lo_bits = bits // 2
        self.lo_mask = (1 << self.lo_bits) - 1
        self.min = None
        self.max = None
        hi_bits = bits - self.lo_bits
        self.summary = _make(hi_bits)
        self.clusters = [_empty(self.lo_bits)] * (1 << hi_bits)

    def first(self, owner):
        return self.min

    def last(self, owner):
        return self.max

    def insert(self, x, owner):
        owner.probes += 1
        if self.min is None:
            self.min = self.max = x
            return
        if x < self.min:
            x, self.min = self.min, x
        if x > self.max:
            self.max = x
        h, l = x >> self.lo_bits, x & self.lo_mask
        cluster = self.clusters[h]
        if cluster.first(owner) is None:
            self.summary.insert(h, owner)
            if cluster is _empty(self.lo_bits):
                cluster = self.clusters[h] = _make(self.lo_bits)
        cluster.insert(l, owner)

    def delete(self, x, owner):
        owner.probes += 1
        if self.min == self.max:
            self.min = self.max = None
            return
        if x == self.min:
            h = self.summary.first(owner)
            l = self.clusters[h].first(owner)
            x = (h << self.lo_bits) | l
            self.min = x
        h, l = x >> self.lo_bits, x & self.lo_mask
        cluster = self.clusters[h]
        cluster.delete(l, owner)
        if cluster.first(owner) is None:
            self.summary.delete(h, owner)
        if x == self.max:
            hs = self.summary.last(owner)
            if hs is None:
                self.max = self.min
            else:
                self.max = (hs << self.lo_bits) | self.clusters[hs].last(owner)

    def pred_lt(self, x, owner):
        owner.probes += 1
        lo = self.min
        if lo is None or x <= lo:
            return None
        if x > self.max:
            return self.max
        bits = self.lo_bits
        h = x >> bits
        cluster = self.clusters[h]
        lo_min = cluster.first(owner)
        l = x & self.lo_mask
        if lo_min is not None and l > lo_min:
            return (h << bits) | cluster.pred_lt(l, owner)
        hp = self.summary.pred_lt(h, owner)
        if hp is None:
            return lo
        return (hp << bits) | self.clusters[hp].last(owner)

    def succ_gt(self, x, owner):
        owner.probes += 1
        hi = self.max
        if hi is None or x >= hi:
            return None
        if x < self.min:
            return self.min
        bits = self.lo_bits
        h = x >> bits
        cluster = self.clusters[h]
        lo_max = cluster.last(owner)
        l = x & self.lo_mask
        if lo_max is not None and l < lo_max:
            return (h << bits) | cluster.succ_gt(l, owner)
        hs = self.summary.succ_gt(h, owner)
        if hs is None:
            # no later cluster holds a key, so the answer is the max kept here
            return hi
        return (hs << bits) | self.clusters[hs].first(owner)


def _make(bits):
    return _Bits() if bits <= 6 else _Node(bits)


@memo
def _empty(bits):
    """The shared empty node of a bit size, never written."""
    return _make(bits)


class VebMap:
    """Span-n predecessor structure mapping keys in 1..span to labels, ints
    in 0..LABEL_MAX."""

    def __init__(self, span):
        if span < 1:
            raise KeyRangeError("span must be >= 1")
        self.span = span
        self.probes = 0
        self.writes = 0
        lg = math.log2(max(span, 4))
        self.width = max(1, math.ceil(math.log2(lg)))  # ceil(log2 log2), >= 1
        self.n_buckets = (span + self.width - 1) // self.width
        self.labels = bytearray(span + 1)   # label + 1 per key, 0 where absent
        self.bucket_count = bytearray(self.n_buckets + 1)   # each <= width <= 6
        # recursive vEB over the indices 0..n_buckets of non-empty buckets
        self.occupied = _make(max(self.n_buckets, 1).bit_length())
        self.size = 0
        self.writes += span + self.n_buckets + 1     # label + bucket arrays

    # -- core operations ---------------------------------------------------

    def _slot(self, key):
        """key as an int in 1..span, else KeyRangeError."""
        if type(key) is not int:
            key = _key(key)
        if not 1 <= key <= self.span:
            raise KeyRangeError(f"key {key} outside 1..{self.span}")
        return key

    def insert(self, key, label):
        key = self._slot(key)
        if self.labels[key]:
            raise DuplicateKey(f"key {key} already present")
        self._store(key, label)
        self.size += 1
        self.probes += 2   # the label cell and the bucket count
        self.writes += 2
        width, counts = self.width, self.bucket_count
        b = (key + width - 1) // width
        if not counts[b]:
            self.occupied.insert(b, self)
        counts[b] += 1

    def _store(self, key, label):
        """Write label + 1 into key's cell. An int label past 254 widens byte
        cells to unsigned ints once; any other label raises VebError."""
        try:
            cell = label + 1
            if not cell:   # -1, or a numpy scalar that wrapped round
                raise ValueError
            self.labels[key] = cell
        except (TypeError, ValueError, OverflowError):
            if isinstance(label, np.integer):
                label = int(label)   # numpy scalar arithmetic wraps at its dtype
            if not isinstance(label, int) or not 0 <= label <= LABEL_MAX:
                raise _label_error(label) from None
            if isinstance(self.labels, bytearray) and label >= 255:
                self.labels = _widened(self.labels)
            self.labels[key] = label + 1

    def delete(self, key):
        key = self._slot(key)
        self.probes += 1
        if not self.labels[key]:
            raise MissingKey(f"key {key} not present")
        self.labels[key] = 0
        self.writes += 1
        self.size -= 1
        b = (key + self.width - 1) // self.width
        self.probes += 1
        self.bucket_count[b] -= 1
        if self.bucket_count[b] == 0:
            self.occupied.delete(b, self)

    def retrieve(self, key):
        key = self._slot(key)
        self.probes += 1
        v = self.labels[key]
        return v - 1 if v else None

    def update(self, key, label):
        """Relabel an existing key in O(1)."""
        key = self._slot(key)
        self.probes += 1
        if not self.labels[key]:
            raise MissingKey(f"key {key} not present")
        self._store(key, label)
        self.writes += 1

    def find_prev(self, key):
        """Largest present key <= key, or None."""
        if type(key) is not int:
            key = _key(key)
        if key < 1:
            return None
        if key > self.span:
            key = self.span
        width = self.width
        b = (key + width - 1) // width
        x = self._scan(key, (b - 1) * width, -1)
        if x is not None:
            return x
        p = self.occupied.pred_lt(b, self)
        if not p:  # None, or the never-occupied bucket 0
            return None
        x = self._scan(min(p * width, self.span), (p - 1) * width, -1)
        if x is None:
            raise InternalError(f"bucket {p} marked occupied but empty")
        return x

    def find_next(self, key):
        """Smallest present key >= key, or None."""
        if type(key) is not int:
            key = _key(key)
        if key > self.span:
            return None
        if key < 1:
            key = 1
        width = self.width
        b = (key + width - 1) // width
        x = self._scan(key, min(b * width, self.span) + 1, 1)
        if x is not None:
            return x
        s = self.occupied.succ_gt(b, self)
        if s is None:
            return None
        x = self._scan((s - 1) * width + 1, min(s * width, self.span) + 1, 1)
        if x is None:
            raise InternalError(f"bucket {s} marked occupied but empty")
        return x

    def _scan(self, start, stop, step):
        """The first present key from start toward stop, exclusive, or None.
        Charges d + 1 probes for a hit d cells from start and one per cell
        of the range for a miss, the counts of a cell-by-cell scan."""
        labels = self.labels
        for x in range(start, stop, step):
            if labels[x]:
                self.probes += (x - start) * step + 1
                return x
        self.probes += (stop - start) * step
        return None

    # -- bulk construction ---------------------------------------------------

    @classmethod
    def build(cls, span, keys, labels):
        """O(span) construction from strictly increasing keys and their labels
        (sequences or 1-d numpy arrays of equal length), inserted one at a
        time; the build charges writes but no probes."""
        if getattr(keys, "ndim", 1) != 1 or len(keys) != len(labels):
            raise VebError(f"build needs as many labels as keys, got {len(labels)} "
                           f"labels for {np.size(keys)} keys")
        m = cls(span)
        insert, last = m.insert, -math.inf
        for key, label in zip(_items(keys), _items(labels)):
            if key <= last:
                raise KeyOrderError("keys must be strictly increasing")
            insert(key, label)
            last = key
        m.probes = 0
        return m

    # -- helpers -------------------------------------------------------------

    def items(self):
        """All (key, label) pairs in key order, by a scan of the label
        cells (debug/tests)."""
        return [(x, v - 1) for x, v in enumerate(self.labels) if v]

    def __len__(self):
        return self.size
