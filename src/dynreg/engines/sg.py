"""vEB-layered engine for semigroups satisfying x^(w+1) y x^w = x^w y x^(w+1).

The engine peels maximal J-classes one at a time. A regular class C is handled
by collapsing maximal runs of C-letters into single vEB entries annotated with
Rees coordinates (i, g, j): i and j are always exact, while the commutative
group mass g is only correct globally. After run collapsing (or immediately,
for a non-regular class) adjacent letters compose into S minus C, so letters
are grouped 2..GROUP_MAX per vEB entry and the grouped word is handed to the
engine for the smaller semigroup. The final layer is the zero class.

Every layer has one edit entry, edit(key, old, new), on its input word, None
meaning absent: old None is an insert, new None a delete. It counts a step,
stops when old == new, edits the input map, and hands the net change to the
layer's one rule, which edits the layer below through the same entry: pair
regrouping (_PairRule) or the run rule (_RunRule). The run rule cuts the run
holding the edited key into the fragments before and after it, splices the
new letter in, re-joins the runs around it where the sandwich matrix allows,
and passes down only the net change of the entries. The cut run's mass, less
the old letter's share, goes to the left fragment, else to the right one; a
single-letter run's goes to the new letter or the next run entry when the
edit rewrites one, else to any other run entry. That preserves the word's
evaluation even though per-run masses drift. Both rules pass down only the
net change of the entries an edit touches, so an edit that leaves an entry's
key and label alone stops in the layer below, and a thick layer does O(1)
vEB operations per edit.

A pair or run layer whose input map is in VebMap list mode (at most FEW_MAX
keys) is a leaf: edit stops after its own map, since a word of O(1) letters
is folded at query time in O(1), and a query walks down only to the first
leaf. The insert that takes a leaf past FEW_MAX keys makes it thick for good
(list mode is one-way): it takes its letters out, empties the stale leaves
below and inserts them anew through edit. The stack is built from numpy
arrays, one whole-array pass per layer: load() bulk-builds each layer's maps
in turn, and each rule's load() returns the collapsed or grouped word for
the layer below.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

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
    over keys 1..span, steps is the layer's own step counter, and rule keeps
    the word of the layer below, down, in step with inp: a _PairRule or a
    _RunRule, None for the base, a word over the zero class whose letter
    count len(inp) is all that matters.

    Every kind of layer is this one class with one edit, and the per-kind
    work is the rule's, so that edit's sites see one layer type and each
    rule's code its own class (only the call rule.pass_down sees both):
    CPython specialises each site of a code object for the types it sees,
    and a site that sees several loses it.
    """

    def __init__(self, span, rule=None, down=None):
        self.span = span
        self.inp = None  # built by load()
        self.rule = rule
        self.down = down
        self.steps = 0

    def maps(self):
        return (self.inp,) if self.rule is None else (self.inp, *self.rule.maps())

    def load(self, keys, labels):
        """Build the layer, and those below it, from its input word: sorted
        integer keys and their letters, as numpy arrays. Each rule's load
        builds its own maps and returns the word below, and only the word
        being built is kept alive on the way down."""
        layer = self
        while layer is not None:
            layer.inp = VebMap.build(layer.span, keys, labels)
            if layer.rule is not None:
                keys, labels = layer.rule.load(layer, keys, labels)
            layer = layer.down

    def edit(self, key, old, new):
        """The letter at key goes from old to new, None meaning absent: old
        None is an insert, new None a delete. Edit the input word and hand
        the net change to the rule, which edits the layer below; the base and
        a leaf (inp in list mode; see the module docstring) stop after their
        own map. The layers below a leaf are leaves too, and stale."""
        self.steps += 1
        if old == new:
            return
        inp = self.inp
        few = inp.few
        if old is None:
            inp.insert(key, new)
        elif new is None:
            inp.delete(key)
        else:
            inp.update(key, new)
        rule = self.rule
        if rule is None:
            return
        if few is None:
            rule.pass_down(self, key, old, new)
        elif inp.few is None:  # this insert took the leaf past FEW_MAX keys
            self._thicken(few)

    def _thicken(self, keys):
        """Make a leaf thick. keys is the key list its input map kept up to
        the insert that left list mode, which still holds every key: the
        letters are read through it, since items() in bucket mode scans the
        whole span. The layer takes them out of its maps again, empties the
        stale layers below, each map a short list, and inserts them anew
        through edit, so a layer below that passes FEW_MAX on the way turns
        thick in turn. Nothing span-sized is allocated."""
        inp = self.inp
        word = [(k, inp.retrieve(k)) for k in keys]
        for k in keys:
            inp.delete(k)
        layer = self
        while layer is not None:
            for m in layer.maps():
                if m.few is not None:
                    for k in m.few[::-1]:
                        m.delete(k)
            layer = layer.down
        for k, a in word:
            self.edit(k, None, a)

    def validate(self):
        """Check a thick layer's word below against its own, and the layers
        below in turn; a leaf's stale layer below is only checked in itself."""
        if self.rule is not None:
            if self.inp.few is None:
                self.rule.check_down(self)
            self.down.validate()


class _PairRule:
    """Groups 2..GROUP_MAX adjacent letters per entry below, keyed by the
    group's last letter; products land in S minus C.

    An edit touches one group, or two when a group of two loses a letter
    and its orphan joins a neighbour. _rewrite passes only the net change of
    the touched groups down: a group key that survives is relabelled, which
    stops at once when its label is unchanged, and only vanished keys are
    deleted and new keys inserted. A group that reaches GROUP_MAX + 1
    letters splits in two halves.
    """

    def __init__(self, s0):
        self.s0 = s0  # the ambient semigroup

    def maps(self):
        return ()

    # -- helpers -----------------------------------------------------------

    def _group(self, inp, out, key):
        """(gkey, label, members) of the group entry holding the input key.

        The members are the input keys in (previous group key, gkey], in
        increasing order, and key itself, also when an edit has just deleted
        it: walk from key both ways up to a key that is itself a group key,
        whose label in out is read on the way. gkey and label are None if no
        group key is >= key.
        """
        ms = []
        k = inp.find_prev(key - 1)
        while k is not None and out.retrieve(k) is None:
            ms.append(k)
            k = inp.find_prev(k - 1)
        ms.reverse()
        k = key
        ms.append(k)
        label = out.retrieve(k)
        while label is None:
            k = inp.find_next(k + 1)
            if k is None:
                return None, None, ms
            ms.append(k)
            label = out.retrieve(k)
        return k, label, ms

    def _label(self, inp, members):
        t = self.s0.table
        acc = inp.retrieve(members[0])
        for k in members[1:]:
            acc = t[acc][inp.retrieve(k)]
        return acc

    def _rewrite(self, inp, down, old, members):
        """Replace the group entries `old` (key -> label) with the groups of
        `members`, sorted input keys cut in halves when there are more than
        GROUP_MAX: delete the keys that vanish, then relabel the ones that
        stay and insert the new ones."""
        if len(members) > GROUP_MAX:
            half = len(members) // 2
            groups = (members[:half], members[half:])
        else:
            groups = (members,)
        new = {ms[-1] for ms in groups}
        for k, label in old.items():
            if k not in new:
                down.edit(k, label, None)
        for ms in groups:
            down.edit(ms[-1], old.get(ms[-1]), self._label(inp, ms))

    # -- word operations -----------------------------------------------------

    def load(self, layer, keys, labels):
        """Group the letters in pairs, keyed by the second; when the count is
        odd, the last pair takes the final letter and becomes a triple."""
        t = table_array(self.s0)
        even = len(keys) - len(keys) % 2
        gkeys = keys[1:even:2].copy()
        glabels = t[labels[0:even:2], labels[1:even:2]]
        if even < len(keys) and even:
            gkeys[-1] = keys[-1]
            glabels[-1] = t[glabels[-1], labels[-1]]
        return gkeys, glabels

    def pass_down(self, layer, key, old, new):
        """Regroup after the input word's edit at key: a relabel changes the
        label of its group; an insert joins the group holding key, or the
        last group when key follows it; a delete leaves its group, whose
        orphan, if one is left, joins a neighbour group, preferably the next
        one, whose entry then keeps its key. A word of one letter has no
        group."""
        inp, down = layer.inp, layer.down
        out = down.inp
        n = inp.size
        if old is not None and new is not None:
            if n > 1:
                gkey, glabel, members = self._group(inp, out, key)
                down.edit(gkey, glabel, self._label(inp, members))
            return
        if n <= 1:  # a delete leaving one letter undoes the only group
            if n == 1 and new is None:
                gkey, glabel, _ = self._group(inp, out, key)
                down.edit(gkey, glabel, None)
            return
        if n == 2 and old is None:  # the first group
            k1 = inp.find_next(1)
            k2 = inp.find_next(k1 + 1)
            down.edit(k2, None, self._label(inp, [k1, k2]))
            return
        gkey, glabel, members = self._group(inp, out, key)
        if old is None and gkey is None:  # key follows the last group: it joins it
            gkey, glabel, members = self._group(inp, out, inp.find_prev(key - 1))
            members.append(key)
        touched = {gkey: glabel}
        if new is None:
            members.remove(key)
            if len(members) == 1:
                orphan = members[0]
                nb = inp.find_next(orphan + 1)
                if nb is None:
                    nb = inp.find_prev(orphan - 1)
                nkey, nlabel, members = self._group(inp, out, nb)
                touched[nkey] = nlabel
                if orphan not in members:
                    members = sorted(members + [orphan])
        self._rewrite(inp, down, touched, members)

    def check_down(self, layer):
        keys = [k for k, _ in layer.inp.items()]
        groups = layer.down.inp.items()
        if len(keys) <= 1:
            _require(groups == [], "pair layer groups a single letter")
        else:
            start = 0
            for gkey, glabel in groups:
                members = keys[start : bisect_right(keys, gkey)]
                _require(2 <= len(members) <= GROUP_MAX,
                         f"pair layer group of {len(members)} letters at key {gkey}")
                _require(members[-1] == gkey, f"pair layer group {members} keyed {gkey}")
                _require(self._label(layer.inp, members) == glabel,
                         f"pair layer label at key {gkey}")
                start += len(members)
            _require(start == len(keys), "pair layer leaves letters ungrouped")


class _RunRule:
    """Collapses maximal runs of C-letters to single annotated entries.

    Besides the collapsed word the rule keeps `cset`, the key set of the run
    entries. Every edit goes through one rule, pass_down: cut the run
    holding the key at the key, splice the new letter in, re-join the runs
    around it where the sandwich matrix allows, and pass down only the net
    change of the entries. Only a separator relabelled to another separator
    skips it, since its entry is its letter. The swap claim makes group mass
    freely movable between run entries, and the rule conserves the total
    mass: the cut run's mass, less the old letter's share, goes to the left
    fragment, else to the right one; a single-letter run's goes to the new
    letter or the next run entry when the edit rewrites one, else to any
    other run entry (found through cset). If none is left the mass is
    necessarily trivial.
    """

    def __init__(self, s0, cls, rv):
        self.s0 = s0
        self.cls = cls      # frozenset of ambient ids in the class C
        self.rv = rv        # _ReesView
        self.cset = None    # built by load()

    def maps(self):
        return (self.cset,)

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

    def load(self, layer, keys, labels):
        keys, labels = self._collapse(keys, labels)
        runs = keys[self.rv.i_of[labels] >= 0]
        self.cset = VebMap.build(layer.span, runs, np.ones(len(runs), dtype=np.int64))
        return keys, labels

    def pass_down(self, layer, key, old, new):
        """The one edit rule (see the class docstring): the input letter at
        key has gone from old to new, None meaning absent; bring the
        collapsed word up to date. The run holding key is cut into the
        fragment ending at the input key m_minus before key and the one
        starting at the input key after it. The net change goes down in key
        order, vanished keys first.
        """
        cls, rv = self.cls, self.rv
        down = layer.down
        old_c = old in cls
        joins = new is None or new in cls  # runs could join across key
        if not (old_c or joins or old is None):  # a separator entry is its letter
            down.edit(key, old, new)
            return
        coord, uncoord, matrix, gt = rv.coord, rv.uncoord, rv.matrix, rv.g_rows
        inp, out = layer.inp, down.inp
        if old_c or old is None:
            q = out.find_next(key)  # the entry that holds, or follows, key
            lq = None if q is None else out.retrieve(q)
        else:  # a separator is its own entry
            q, lq = key, old
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
        cset = self.cset
        for k, lab in was.items():
            if k not in now:
                if lab in cls:
                    cset.delete(k)
                down.edit(k, lab, None)
        for k, lab in now.items():
            lab0 = was.get(k)
            if lab0 == lab:
                continue
            c0, c = lab0 in cls, lab in cls
            if c and not c0:
                cset.insert(k, 1)
            elif c0 and not c:
                cset.delete(k)
            down.edit(k, lab0, lab)
        if carry != e:
            self._discharge(down, carry)

    def _discharge(self, down, delta):
        """Push a group-mass difference onto any run entry; when none is
        left the difference is trivial, since the total mass is conserved."""
        other = self.cset.find_next(1)
        if other is not None:
            rv = self.rv
            label = down.inp.retrieve(other)
            i, g, j = rv.coord[label]
            down.edit(other, label, rv.uncoord[(i, rv.g_mul(g, delta), j)])

    def check_down(self, layer):
        """Check the kept collapsed word against the exact collapse of the
        input word: the same entries up to per-run group masses, the same
        total mass and the same evaluation."""
        items = layer.inp.items()
        entries = layer.down.inp.items()
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
            plans.append(("base",))
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

    def __init__(self, semigroup, word):
        if not check_variety(semigroup, "SG"):
            raise NotSg("semigroup does not satisfy the swap equation")
        super().__init__(semigroup, word)
        s0 = self.s0 = adjoin_zero(semigroup, reuse=True)
        span = max(self.n, 1)
        layer = None
        for spec in reversed(build_layer_plan(s0)):
            if spec[0] == "base":
                layer = _Layer(span)
            elif spec[0] == "pair":
                layer = _Layer(span, _PairRule(s0), layer)
            else:
                layer = _Layer(span, _RunRule(s0, spec[1], spec[2]), layer)
        self.top = layer
        letters = word if isinstance(word, np.ndarray) else self.word
        self.top.load(np.arange(1, self.n + 1, dtype=np.min_scalar_type(self.n)),
                      np.asarray(letters, dtype=table_array(s0).dtype))
        self.layers = []  # top first
        while layer is not None:
            self.layers.append(layer)
            layer = layer.down

    def update(self, pos, letter):
        self._check(pos, letter)
        self._steps += 1
        old = self.word[pos]
        self.word[pos] = letter
        self.top.edit(pos + 1, old, letter)

    def query(self):
        """Walk down from the top to the first layer that is a leaf or whose
        word is empty or one letter long, or to the base, whose nonempty word
        is the zero. Every layer preserves the word's evaluation, so a leaf
        answers with the fold of its listed letters through the table, one
        probe per letter read; a thick layer's one letter is read with its
        probes. Every layer passed charges one step."""
        self._steps += 1
        layer = self.top
        while layer.inp.size > 1 and layer.down is not None and layer.inp.few is None:
            layer.steps += 1
            layer = layer.down
        layer.steps += 1
        inp = layer.inp
        if inp.size == 0:
            value = None
        elif layer.down is None:
            value = self.s0.zero
        elif inp.few is not None:
            t, labels, few = self.s0.table, inp.labels, inp.few
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


def make_sg_engine(semigroup, word):
    return SgEngine(semigroup, word)
