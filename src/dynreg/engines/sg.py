"""vEB-layered engine for semigroups satisfying x^(w+1) y x^w = x^w y x^(w+1).

The engine peels maximal J-classes one at a time. A regular class C is handled
by collapsing maximal runs of C-letters into single vEB entries annotated with
Rees coordinates (i, g, j): i and j are always exact, while the commutative
group mass g is only correct globally. A run layer edits its collapsed word by
one rule: cut the run holding the edited key into the fragments before and
after it, splice the new letter in, re-join the runs around it where the
sandwich matrix allows, and pass down only the net change of the entries.
The cut run's mass, less the old letter's share, goes to the left fragment,
else to the right one; a single-letter run's goes to the new letter or the
next run entry when the edit rewrites one, else to any other run entry. That
preserves the word's evaluation even though per-run masses drift. After run collapsing (or immediately, for a
non-regular class) adjacent letters compose into S minus C, so letters are
grouped 2..GROUP_MAX per vEB entry and the grouped word is handed to the
engine for the smaller semigroup. The final layer is the zero class.

Every layer supports keyed insert/delete/update on its input word. A pair
or run layer whose input map is in VebMap list mode (at most FEW_MAX keys)
is a leaf: it edits its own input word and count and nothing below it, since
a word of O(1) letters is folded at query time in O(1), and a query walks
down only to the first leaf. The insert that takes a leaf past FEW_MAX keys
makes it thick for good (list mode is one-way): it takes its letters out,
empties the stale leaves below and inserts them anew through its own rules.
A thick layer does O(1) vEB operations per edit. Run and pair layers pass
down only the net change of the entries an edit touches, so an edit that
leaves an entry's key and label alone stops there. The stack is built from
numpy arrays, one whole-array pass per layer: each layer's load() bulk-builds
its maps and hands its collapsed or grouped word to the layer below.
"""

from __future__ import annotations

from bisect import bisect_right, insort

import numpy as np

from .. import veb
from ..algebra.core import adjoin_zero, restriction, table_array
from ..algebra.green import green_j
from ..algebra.rees import rees_decompose
from ..algebra.varieties import check_variety
from ..errors import InternalError, NotSg
from ..memo import memo
from ..veb import VebMap
from .base import Engine


def _require(ok, message):
    """Invariant check for validate(); raises, so it also holds under -O."""
    if not ok:
        raise InternalError(message)


GROUP_MAX = 5  # a pair-layer group holds 2..GROUP_MAX letters


class _ReesView:
    """Rees data of one layer, translated to ambient element ids; the group
    arithmetic is the representation's own, and g_rows is its table as
    nested lists, for the run layer's one-product-at-a-time edits.

    The array collapse reads the same data as arrays: i_of, g_of and j_of map
    an ambient id to its coordinates (-1 outside the class), p is the
    sandwich matrix (-1 for a zero entry), u maps (i, g, j) back to the
    ambient id, and g_table and g_inverse hold the group's arithmetic.
    """

    def __init__(self, rees, incl, size):
        self.coord = {incl[x]: c for x, c in rees.coord.items()}
        self.uncoord = {c: incl[x] for c, x in rees.uncoord.items()}
        self.matrix = rees.matrix
        self.g_identity = rees.g_identity
        self.g_mul = rees.g_mul
        self.g_inv = rees.g_inv
        self.g_rows = rees.group.table
        gsize = rees.group.size
        dtype = np.min_scalar_type(-size)  # every id, coordinate and -1
        self.i_of, self.g_of, self.j_of = np.full((3, size), -1, dtype=dtype)
        self.u = np.zeros((rees.i_count, gsize, rees.j_count), dtype=dtype)
        for x, (i, g, j) in self.coord.items():
            self.i_of[x], self.g_of[x], self.j_of[x] = i, g, j
            self.u[i, g, j] = x
        self.p = np.array([[-1 if v is None else v for v in row] for row in self.matrix],
                          dtype=dtype)
        self.g_table = np.asarray(rees.group.table, dtype=dtype)
        self.g_inverse = np.array([rees.g_inv(x) for x in range(gsize)], dtype=dtype)


def _prefix_products(table, x):
    """Inclusive prefix products of the sequence x under an associative
    table, by doubling: log2(len(x)) vectorized passes."""
    x = x.copy()
    d = 1
    while d < len(x):
        x[d:] = table[x[:-d], x[d:]]
        d *= 2
    return x


class _Layer:
    """One layer of the stack. inp holds the layer's input word as a VebMap
    over keys 1..span, down is the layer that takes its collapsed word (None
    for the base), count is the number of input letters and steps the
    layer's own step counter.

    insert, delete and update here edit the input word alone: the base
    layer's edits, and a leaf's (a pair or run layer whose inp is in list
    mode; see the module docstring). The layers below a leaf are leaves
    too, and stale.
    """

    def __init__(self, span, down=None):
        self.span = span
        self.inp = None  # built by load()
        self.down = down
        self.count = 0
        self.steps = 0

    def maps(self):
        return (self.inp,)

    def load(self, keys, labels):
        """Build the layer, and those below it, from its input word: sorted
        integer keys and their letters, as numpy arrays."""
        self.inp = VebMap.build(self.span, keys, labels)
        self.count = len(keys)

    def insert(self, key, letter):
        self.steps += 1
        self.inp.insert(key, letter)
        self.count += 1

    def delete(self, key):
        self.steps += 1
        self.inp.delete(key)
        self.count -= 1

    def update(self, key, letter):
        self.steps += 1
        self.inp.update(key, letter)

    def _leaf_insert(self, key, letter):
        """A leaf's insert; the one that takes inp past FEW_MAX keys makes
        the layer thick: the listed letters are read before it, since
        items() in bucket mode scans the whole span. The layer then takes
        them out of its maps again, empties the stale layers below, each
        map a short list, and inserts them anew through its own rules, so a
        layer below that passes FEW_MAX on the way turns thick in turn.
        Nothing span-sized is allocated."""
        inp = self.inp
        if len(inp.few) < veb.FEW_MAX:
            _Layer.insert(self, key, letter)
            return
        word = [(k, inp.retrieve(k)) for k in inp.few]
        _Layer.insert(self, key, letter)
        insort(word, (key, letter))
        for k, _ in word:
            inp.delete(k)
        layer = self
        while layer is not None:
            for m in layer.maps():
                if m.few is not None:
                    for k in m.few[::-1]:
                        m.delete(k)
            layer.count = 0
            layer = layer.down
        for k, a in word:
            self.insert(k, a)

    def validate(self):
        """Check the count, a thick layer's word below against its own, and
        the layers below in turn; a leaf's stale layer below is only checked
        in itself."""
        _require(self.count == len(self.inp),
                 f"{type(self).__name__} count out of sync")
        if self.down is not None:
            if self.inp.few is None:
                self._check_down()
            self.down.validate()


class _BaseLayer(_Layer):
    """Word over the zero class: only the letter count matters."""

    def __init__(self, span, zero_id):
        super().__init__(span)
        self.zero_id = zero_id


class _PairLayer(_Layer):
    """Groups 2..GROUP_MAX adjacent letters per entry, keyed by the group's
    last letter; products land in S minus C.

    An edit touches one group, or two when a group of two loses a letter
    and its orphan joins a neighbour. _rewrite passes only the net change of
    the touched groups down: a group key that survives is updated, which
    stops at once when its label is unchanged, and only vanished keys are
    deleted and new keys inserted. A group that reaches GROUP_MAX + 1
    letters splits in two halves.
    """

    def __init__(self, span, s0, down):
        super().__init__(span, down)
        self.s0 = s0  # the ambient semigroup

    # -- helpers -----------------------------------------------------------

    def _group(self, key):
        """(gkey, members) of the group entry holding the input key.

        The members are the input keys in (previous group key, gkey], in
        increasing order: walk from key both ways up to a key that is itself
        a group key. gkey is None if no group key is >= key.
        """
        inp, out = self.inp, self.down.inp
        ms = []
        k = inp.find_prev(key - 1)
        while k is not None and out.retrieve(k) is None:
            ms.append(k)
            k = inp.find_prev(k - 1)
        ms.reverse()
        k = key
        ms.append(k)
        while out.retrieve(k) is None:
            k = inp.find_next(k + 1)
            if k is None:
                return None, ms
            ms.append(k)
        return k, ms

    def _label(self, members):
        t = self.s0.table
        acc = self.inp.retrieve(members[0])
        for k in members[1:]:
            acc = t[acc][self.inp.retrieve(k)]
        return acc

    def _rewrite(self, old, members):
        """Replace the group entries keyed by `old` with the groups of
        `members`, sorted input keys cut in halves when there are more than
        GROUP_MAX: delete the keys that vanish, update the ones that stay and
        insert the new ones."""
        if len(members) > GROUP_MAX:
            half = len(members) // 2
            groups = (members[:half], members[half:])
        else:
            groups = (members,)
        down = self.down
        new = {ms[-1] for ms in groups}
        for k in old:
            if k not in new:
                down.delete(k)
        for ms in groups:
            if ms[-1] in old:
                down.update(ms[-1], self._label(ms))
            else:
                down.insert(ms[-1], self._label(ms))

    # -- word operations -----------------------------------------------------

    def load(self, keys, labels):
        """Group the letters in pairs, keyed by the second; when the count is
        odd, the last pair takes the final letter and becomes a triple."""
        super().load(keys, labels)
        t = table_array(self.s0)
        even = len(keys) - len(keys) % 2
        gkeys = keys[1:even:2].copy()
        glabels = t[labels[0:even:2], labels[1:even:2]]
        if even < len(keys) and even:
            gkeys[-1] = keys[-1]
            glabels[-1] = t[glabels[-1], labels[-1]]
        self.down.load(gkeys, glabels)

    def insert(self, key, letter):
        if self.inp.few is not None:
            self._leaf_insert(key, letter)
            return
        self.steps += 1
        self.inp.insert(key, letter)
        self.count += 1
        if self.count == 1:
            return
        if self.count == 2:
            k1 = self.inp.find_next(1)
            k2 = self.inp.find_next(k1 + 1)
            self.down.insert(k2, self._label([k1, k2]))
            return
        gkey, members = self._group(key)
        if gkey is None:  # key follows the last group: it joins that group
            gkey, members = self._group(self.inp.find_prev(key - 1))
            members.append(key)
        self._rewrite((gkey,), members)

    def delete(self, key):
        if self.inp.few is not None:
            super().delete(key)
            return
        self.steps += 1
        if self.count == 1:
            self.inp.delete(key)
            self.count = 0
            return
        gkey, members = self._group(key)
        if self.count == 2:
            self.down.delete(gkey)
            self.inp.delete(key)
            self.count = 1
            return
        members.remove(key)
        self.inp.delete(key)
        self.count -= 1
        if len(members) >= 2:
            self._rewrite((gkey,), members)
            return
        # orphaned single member: it joins a neighbour group, preferably the
        # next one, whose entry then keeps its key
        orphan = members[0]
        nb = self.inp.find_next(orphan + 1)
        if nb is None:
            nb = self.inp.find_prev(orphan - 1)
        nkey, nmembers = self._group(nb)
        if orphan not in nmembers:
            nmembers = sorted(nmembers + [orphan])
        self._rewrite((gkey, nkey), nmembers)

    def update(self, key, letter):
        if self.inp.few is not None:
            super().update(key, letter)
            return
        self.steps += 1
        if self.inp.retrieve(key) == letter:
            return
        self.inp.update(key, letter)
        if self.count == 1:
            return
        gkey, members = self._group(key)
        self.down.update(gkey, self._label(members))

    def _check_down(self):
        keys = [k for k, _ in self.inp.items()]
        groups = self.down.inp.items()
        if self.count <= 1:
            _require(groups == [], "pair layer groups a single letter")
        else:
            start = 0
            for gkey, glabel in groups:
                members = keys[start : bisect_right(keys, gkey)]
                _require(2 <= len(members) <= GROUP_MAX,
                         f"pair layer group of {len(members)} letters at key {gkey}")
                _require(members[-1] == gkey, f"pair layer group {members} keyed {gkey}")
                _require(self._label(members) == glabel, f"pair layer label at key {gkey}")
                start += len(members)
            _require(start == len(keys), "pair layer leaves letters ungrouped")


class _RunLayer(_Layer):
    """Collapses maximal runs of C-letters to single annotated entries.

    Besides the collapsed word the layer keeps `cset`, the key set of the run
    entries. Every insert, delete and relabel goes through one rule, _edit:
    cut the run holding the key at the key, splice the new letter in, re-join
    the runs around it where the sandwich matrix allows, and pass down only
    the net change of the entries. Only a separator relabelled to another
    separator skips it, since its entry is its letter. The swap claim makes
    group mass freely movable between run entries, and the rule conserves
    the total mass: the cut run's mass, less the old letter's share, goes to
    the left fragment, else to the right one; a single-letter run's goes to
    the new letter or the next run entry when the edit rewrites one, else to
    any other run entry (found through cset). If none is left the mass is
    necessarily trivial.
    """

    def __init__(self, span, s0, cls, rv, down):
        super().__init__(span, down)
        self.s0 = s0
        self.cls = cls      # frozenset of ambient ids in the class C
        self.rv = rv        # _ReesView
        self.cset = None    # built by load()

    def maps(self):
        return (self.inp, self.cset)

    # -- helpers -----------------------------------------------------------

    def _collapse(self, keys, labels):
        """The exact collapsed word of the input word (keys, labels), as two
        arrays: each maximal run of C-letters becomes one entry, keyed by its
        last letter and carrying the run's exact group mass.

        A C-letter joins the run of the C-letter before it when their
        sandwich entry p is nonzero; it then adds the factor p g to the run's
        mass, and a letter that starts a run adds its g. A run's mass is the
        product of its factors, P[start - 1]^-1 P[end] for the prefix
        products P, taken only over the factors that are not the identity.
        """
        rv = self.rv
        n = len(keys)
        i, g, j = rv.i_of[labels], rv.g_of[labels], rv.j_of[labels]
        inc = i >= 0
        p = np.full(n, -1, dtype=rv.p.dtype)  # p[t] >= 0: t joins t - 1's run
        t = np.flatnonzero(inc[1:] & inc[:-1]) + 1
        p[t] = rv.p[j[t - 1], i[t]]
        joined = p >= 0
        last = np.ones(n, dtype=bool)  # t ends its entry
        last[:-1] = ~joined[1:]
        ends = np.flatnonzero(last)
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1] + 1
        e = rv.g_identity
        factor = np.where(inc, g, e)
        t = np.flatnonzero(joined)
        factor[t] = rv.g_table[p[t], g[t]]
        moved = np.flatnonzero(factor != e)
        prefix = np.append(e, _prefix_products(rv.g_table, factor[moved]))
        before = prefix[np.searchsorted(moved, starts, side="left")]
        upto = prefix[np.searchsorted(moved, ends, side="right")]
        out = labels[ends]
        run = inc[ends]
        mass = rv.g_table[rv.g_inverse[before[run]], upto[run]]
        out[run] = rv.u[i[starts[run]], mass, j[ends[run]]]
        return keys[ends], out

    # -- word operations -----------------------------------------------------

    def load(self, keys, labels):
        super().load(keys, labels)
        keys, labels = self._collapse(keys, labels)
        runs = keys[self.rv.i_of[labels] >= 0]
        self.cset = VebMap.build(self.span, runs, np.ones(len(runs), dtype=np.int64))
        self.down.load(keys, labels)

    def insert(self, key, a):
        if self.inp.few is not None:
            self._leaf_insert(key, a)
            return
        self.steps += 1
        self.inp.insert(key, a)
        self.count += 1
        self._edit(key, None, a)

    def delete(self, key):
        if self.inp.few is not None:
            super().delete(key)
            return
        self.steps += 1
        old = self.inp.retrieve(key)
        self.inp.delete(key)
        self.count -= 1
        self._edit(key, old, None)

    def update(self, key, a):
        if self.inp.few is not None:
            super().update(key, a)
            return
        self.steps += 1
        old = self.inp.retrieve(key)
        if old == a:
            return
        self.inp.update(key, a)
        if old in self.cls or a in self.cls:
            self._edit(key, old, a)
        else:  # a separator entry is its letter: it touches no run
            self.down.update(key, a)

    def _edit(self, key, old, new):
        """The one edit rule (see the class docstring): the input letter at
        key has gone from old to new, None meaning absent; bring the
        collapsed word up to date. The run holding key is cut into the
        fragment ending at the input key m_minus before key and the one
        starting at the input key after it. The net change goes down in key
        order, vanished keys first.
        """
        cls, rv = self.cls, self.rv
        coord, uncoord, matrix, gt = rv.coord, rv.uncoord, rv.matrix, rv.g_rows
        inp, out = self.inp, self.down.inp
        old_c = old in cls
        if old_c or old is None:
            q = out.find_next(key)  # the entry that holds, or follows, key
            lq = None if q is None else out.retrieve(q)
        else:  # a separator is its own entry
            q, lq = key, old
        joins = new is None or new in cls  # runs could join across key
        m_minus = lm = None
        if joins or lq in cls:
            m_minus = inp.find_prev(key - 1)
            if m_minus is not None:
                lm = out.retrieve(m_minus)
        # down keys are input keys, so a neighbour shares key's run exactly
        # when no entry ends between them
        left_in = m_minus is not None and lm is None
        right_in = left_in if old is None else q != key
        was = {}     # the entries replaced: key -> label, in key order
        pieces = []  # what replaces them: (key, label), or (key, i, g, j) for a run
        if joins and lm in cls:  # the run entry just before the cut
            was[m_minus] = lm
            pieces.append((m_minus, *coord[lm]))
        e = carry = rv.g_identity  # carry: mass still to be placed
        right = None
        if old_c or left_in:  # q's run holds key: cut it there
            was[q] = lq
            i, g, j = coord[lq]
            if left_in:
                j_m = coord[inp.retrieve(m_minus)][2]
            if right_in:
                i_p = coord[inp.retrieve(inp.find_next(key + 1))][0]
            if old_c:  # the letter and the joins it made
                i_o, share, j_o = coord[old]
                if left_in:
                    share = gt[share][matrix[j_m][i_o]]
                if right_in:
                    share = gt[share][matrix[j_o][i_p]]
            else:  # the join of m_minus to the letter after it
                share = matrix[j_m][i_p]
            carry = gt[g][rv.g_inv(share)]
            if left_in:
                pieces.append((m_minus, i, carry, j_m))
                carry = e
            if right_in:
                right = (q, i_p, carry, j)
                carry = e
        elif old is not None:
            was[key] = old
        if new in cls:
            i_n, g_n, j_n = coord[new]
            pieces.append((key, i_n, gt[g_n][carry], j_n))
            carry = e
        elif new is not None:
            pieces.append((key, new))
        if right is not None:
            pieces.append(right)
        elif pieces and len(pieces[-1]) == 4:  # a run the next entry could join
            nk = q if old is None else out.find_next(key + 1)
            ln = None if nk is None else out.retrieve(nk)
            if ln in cls:
                was[nk] = ln
                i2, g2, j2 = coord[ln]
                pieces.append((nk, i2, gt[g2][carry], j2))
                carry = e
        now = {}    # the entries after the edit: key -> label
        run = None  # the last piece while it is a run, which the next may join
        for piece in pieces:
            if run is not None:
                if len(piece) == 4:
                    p = matrix[run[3]][piece[1]]
                    if p is not None:
                        run = (piece[0], run[1], gt[gt[run[2]][p]][piece[2]], piece[3])
                        continue
                now[run[0]] = uncoord[run[1:]]
            if len(piece) == 2:
                now[piece[0]] = piece[1]
                run = None
            else:
                run = piece
        if run is not None:
            now[run[0]] = uncoord[run[1:]]
        down, cset = self.down, self.cset
        for k, lab in was.items():
            if k not in now:
                if lab in cls:
                    cset.delete(k)
                down.delete(k)
        for k, lab in now.items():
            lab0 = was.get(k)
            if lab0 is None:
                if lab in cls:
                    cset.insert(k, 1)
                down.insert(k, lab)
            elif lab0 != lab:
                if lab0 not in cls:
                    cset.insert(k, 1)
                elif lab not in cls:
                    cset.delete(k)
                down.update(k, lab)
        if carry != e:
            self._discharge(carry)

    def _discharge(self, delta):
        """Push a group-mass difference onto any run entry; when none is
        left the difference is trivial, since the total mass is conserved."""
        other = self.cset.find_next(1)
        if other is not None:
            rv = self.rv
            i, g, j = rv.coord[self.down.inp.retrieve(other)]
            self.down.update(other, rv.uncoord[(i, rv.g_mul(g, delta), j)])

    def _check_down(self):
        """Check the kept collapsed word against the exact collapse of the
        input word: the same entries up to per-run group masses, the same
        total mass and the same evaluation."""
        items = self.inp.items()
        entries = self.down.inp.items()
        cls, rv = self.cls, self.rv
        _require([k for k, _ in self.cset.items()] == [
            k for k, lab in entries if lab in cls
        ], "cset out of sync with run entries")
        ekeys, elabels = self._collapse(np.array([k for k, _ in items], dtype=np.int64),
                                        np.array([lab for _, lab in items], dtype=np.int64))
        exact = list(zip(ekeys.tolist(), elabels.tolist()))

        def skeleton(word):
            return [(k, rv.coord[lab][0], rv.coord[lab][2]) if lab in cls
                    else (k, lab) for k, lab in word]

        def mass(word):
            return rv.g_mul(*[rv.coord[lab][1] for _, lab in word if lab in cls])

        def value(word):
            return self.s0.eval_word(lab for _, lab in word)

        _require(skeleton(entries) == skeleton(exact), (entries, exact))
        _require(mass(entries) == mass(exact), "run layer total mass drifted")
        _require(value(entries) == value(items),
                 "run layer lost the global evaluation")


@memo
def build_layer_plan(s0):
    """Sequence of layer specs peeling maximal J-classes off s0 (with zero).

    Plans are immutable and memoized per semigroup table, so repeated engine
    builds over the same semigroup skip the Green/Rees computations.
    """
    plans = []
    current = list(range(s0.size))
    while True:
        sub, incl = restriction(s0, current)
        js = green_j(sub)
        if len(js.classes) == 1:
            plans.append(("base", s0.zero))
            break
        cid = js.maximal_classes[0]
        cls = frozenset(incl[x] for x in js.classes[cid])
        if js.regular[cid]:
            rees = rees_decompose(sub, cid, js)
            plans.append(("run", cls, _ReesView(rees, incl, s0.size)))
        plans.append(("pair", cls))
        current = [x for x in current if x not in cls]
    return plans


class SgEngine(Engine):
    kind = "sg"

    def __init__(self, semigroup, word, debug_checks=False):
        if not check_variety(semigroup, "SG"):
            raise NotSg("semigroup does not satisfy the swap equation")
        super().__init__(semigroup, word)
        s0 = adjoin_zero(semigroup, reuse=True)
        self.debug_checks = debug_checks
        span = max(self.n, 1)
        plans = build_layer_plan(s0)
        layer = None
        for spec in reversed(plans):
            if spec[0] == "base":
                layer = _BaseLayer(span, spec[1])
            elif spec[0] == "pair":
                layer = _PairLayer(span, s0, layer)
            else:
                layer = _RunLayer(span, s0, spec[1], spec[2], layer)
        self.top = layer
        letters = word if isinstance(word, np.ndarray) else self.word
        self.top.load(np.arange(1, self.n + 1, dtype=np.min_scalar_type(self.n)),
                      np.asarray(letters, dtype=table_array(s0).dtype))
        self.layers = []  # top first
        while layer is not None:
            self.layers.append(layer)
            layer = layer.down
        if debug_checks:
            self.top.validate()

    def update(self, pos, letter):
        self._check(pos, letter)
        self._steps += 1
        self.word[pos] = letter
        self.top.update(pos + 1, letter)
        if self.debug_checks:
            self.top.validate()

    def query(self):
        """Walk down from the top to the first layer that is a leaf or whose
        word is empty or one letter long, or to the base, whose nonempty word
        is the zero. Every layer preserves the word's evaluation, so a leaf
        answers with the fold of its listed letters through the table, one
        probe per letter read; a thick layer's one letter is read with its
        probes. Every layer passed charges one step."""
        self._steps += 1
        layer = self.top
        while layer.count > 1 and layer.down is not None and layer.inp.few is None:
            layer.steps += 1
            layer = layer.down
        layer.steps += 1
        inp = layer.inp
        if layer.count == 0:
            value = None
        elif layer.down is None:
            value = layer.zero_id
        elif inp.few is not None:
            t, labels, few = layer.s0.table, inp.labels, inp.few
            value = labels[few[0]]
            for k in few[1:]:
                value = t[value][labels[k]]
            inp.probes += len(few)
        else:
            value = inp.retrieve(inp.find_next(1))
        return value

    def _parts(self):
        for layer in self.layers:
            yield layer
            yield from layer.maps()


def make_sg_engine(semigroup, word, debug_checks=False):
    return SgEngine(semigroup, word, debug_checks=debug_checks)
