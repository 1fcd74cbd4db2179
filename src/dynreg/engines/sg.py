"""vEB-layered engine for semigroups satisfying x^(w+1) y x^w = x^w y x^(w+1).

The engine peels maximal J-classes one at a time. A regular class C is handled
by collapsing maximal runs of C-letters into single vEB entries annotated with
Rees coordinates (i, g, j): i and j are always exact, while the commutative
group mass g is only correct globally -- when a run splits, the orphaned mass
goes to the left fragment and the right fragment gets the group identity, which
preserves the word's evaluation even though per-run masses drift. After run
collapsing (or immediately, for a non-regular class) adjacent letters compose
into S minus C, so letters are grouped 2..GROUP_MAX per vEB entry and the
grouped word is handed to the engine for the smaller semigroup. The final
layer is the zero class.

Every layer supports keyed insert/delete/update on its input word plus the
one-letter bypass, so the whole stack does O(1) vEB operations per update. A
pair layer passes down only the net change of the groups an edit touches, so
an edit that leaves a group's key and label alone stops there.
The stack is built from numpy arrays, one whole-array pass per layer: each
layer's load() bulk-builds its maps and hands its collapsed or grouped word
to the layer below.
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
    arithmetic is the representation's own.

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
    layer's own step counter."""

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

    def eval(self):
        self.steps += 1
        if self.count == 0:
            return None
        if self.count == 1:
            return self.inp.retrieve(self.inp.find_next(1))
        return self.down.eval()

    def validate(self):
        _require(self.count == len(self.inp),
                 f"{type(self).__name__} count out of sync")


class _BaseLayer(_Layer):
    """Word over the zero class: only the letter count matters."""

    def __init__(self, span, zero_id):
        super().__init__(span)
        self.zero_id = zero_id

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

    def eval(self):
        self.steps += 1
        return self.zero_id if self.count else None


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
        self.steps += 1
        if self.inp.retrieve(key) == letter:
            return
        self.inp.update(key, letter)
        if self.count == 1:
            return
        gkey, members = self._group(key)
        self.down.update(gkey, self._label(members))

    def validate(self):
        super().validate()
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
        self.down.validate()


class _RunLayer(_Layer):
    """Collapses maximal runs of C-letters to single annotated entries.

    Besides the collapsed word the layer keeps `cset`, the key set of the run
    entries. The swap claim makes group mass freely movable between run
    entries, and every operation conserves the total mass, so when a
    single-letter run is deleted the difference between its stored mass and
    its true letter mass is pushed onto any other surviving run entry (found
    through cset); if none survives the difference is necessarily trivial.

    A letter moving into or out of C is relabelled in place: the runs next
    to it are joined or split directly, not by a delete and a re-insert.
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

    def _p(self, j, i):
        return self.rv.matrix[j][i]

    def _entry(self, key):
        label = self.down.inp.retrieve(key)
        return self.rv.coord[label]

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

    def _dins(self, key, label):
        self.down.insert(key, label)
        if label in self.cls:
            self.cset.insert(key, 1)

    def _ddel(self, key):
        if self.down.inp.retrieve(key) in self.cls:
            self.cset.delete(key)
        self.down.delete(key)

    def _dupd(self, key, label):
        was = self.down.inp.retrieve(key) in self.cls
        now = label in self.cls
        if was and not now:
            self.cset.delete(key)
        elif now and not was:
            self.cset.insert(key, 1)
        self.down.update(key, label)

    def load(self, keys, labels):
        super().load(keys, labels)
        keys, labels = self._collapse(keys, labels)
        runs = keys[self.rv.i_of[labels] >= 0]
        self.cset = VebMap.build(self.span, runs, np.ones(len(runs), dtype=np.int64))
        self.down.load(keys, labels)

    def insert(self, key, a):
        self.steps += 1
        cls = self.cls
        out = self.down.inp
        q = out.find_next(key)
        lq = None if q is None else out.retrieve(q)
        if lq not in cls and a not in cls:
            # no run covers key and a starts none: a separator entry
            self.inp.insert(key, a)
            self.count += 1
            self._dins(key, a)
            return
        m_minus = self.inp.find_prev(key)
        # m_minus ends the entry before key, unless key falls inside q's run
        lm = None if m_minus is None else out.retrieve(m_minus)
        self.inp.insert(key, a)
        self.count += 1
        if lq in cls and m_minus is not None and lm is None:
            self._insert_inside(key, a, q, lq, m_minus)
        elif a in cls:
            self._join(key, a, m_minus, lm, q, lq, present=False)
        else:
            self._dins(key, a)

    def _insert_inside(self, key, a, q, lq, m_minus):
        """Insert a between the letters m_minus and m_plus of q's run."""
        rv = self.rv
        m_plus = self.inp.find_next(key + 1)
        i, g, j = rv.coord[lq]
        j_m = rv.coord[self.inp.retrieve(m_minus)][2]
        i_p = rv.coord[self.inp.retrieve(m_plus)][0]
        g = rv.g_mul(g, rv.g_inv(self._p(j_m, i_p)))  # step (*)
        if a in self.cls:
            ia, ga, ja = rv.coord[a]
            p1, p2 = self._p(j_m, ia), self._p(ja, i_p)
        else:  # a separator joins neither fragment
            p1 = p2 = None
        if p1 is not None and p2 is not None:
            g = rv.g_mul(g, p1, ga, p2)
            self._dupd(q, rv.uncoord[(i, g, j)])
        elif p1 is None and p2 is None:
            self._dins(m_minus, rv.uncoord[(i, g, j_m)])
            self._dins(key, a)
            self._dupd(q, rv.uncoord[(i_p, rv.g_identity, j)])
        elif p1 is not None:  # p2 is None: left fragment absorbs the letter
            self._dins(key, rv.uncoord[(i, rv.g_mul(g, p1, ga), ja)])
            self._dupd(q, rv.uncoord[(i_p, rv.g_identity, j)])
        else:  # p1 is None: right fragment absorbs the letter
            self._dins(m_minus, rv.uncoord[(i, g, j_m)])
            self._dupd(q, rv.uncoord[(ia, rv.g_mul(ga, p2), j)])

    def _join(self, key, a, m_minus, lm, q, lq, present):
        """Enter the C-letter a at key, which lies inside no run: join it to
        the run entry at m_minus (label lm) before it and the one at q (label
        lq) after it, as far as the sandwich matrix allows. present: key
        already has its own entry in the collapsed word."""
        rv = self.rv
        ia, ga, ja = rv.coord[a]
        i0, g0 = ia, ga
        if lm in self.cls:
            i1, g1, j1 = rv.coord[lm]
            pl = self._p(j1, ia)
            if pl is not None:
                self._ddel(m_minus)
                i0, g0 = i1, rv.g_mul(g1, pl, ga)
        pr = None
        if lq in self.cls:
            i2, g2, j2 = rv.coord[lq]
            pr = self._p(ja, i2)
        if pr is None:
            label = rv.uncoord[(i0, g0, ja)]
            if present:
                self._dupd(key, label)
            else:
                self._dins(key, label)
            return
        if present:
            self._ddel(key)
        self._dupd(q, rv.uncoord[(i0, rv.g_mul(g0, pr, g2), j2)])

    def _cut(self, key, old, new=None):
        """Take the C-letter old at key out of its run: delete it from the
        input word (new is None) or relabel it there to the separator new.

        Returns (q, i, g, j, m_minus, j_m, i_p): the run's entry q with its
        coordinates, g less the letter's share of the mass; the input key
        m_minus before key; the L-index j_m of the run letter at m_minus,
        None if key starts the run; the R-index i_p of the run letter after
        key, None if key ends the run. The lookups after the input edit see
        the input word without the letter.
        """
        rv = self.rv
        out = self.down.inp
        q = out.find_next(key)
        m_minus = self.inp.find_prev(key - 1)
        # down keys are input keys, so m_minus is in key's run iff no entry
        # ends there
        left_in = m_minus is not None and out.retrieve(m_minus) is None
        i, g, j = self._entry(q)
        if new is None:
            self.inp.delete(key)
            self.count -= 1
        else:
            self.inp.update(key, new)
        ip, gp, jp = rv.coord[old]
        g = rv.g_mul(g, rv.g_inv(gp))
        j_m = i_p = None
        if left_in:
            j_m = rv.coord[self.inp.retrieve(m_minus)][2]
            g = rv.g_mul(g, rv.g_inv(self._p(j_m, ip)))
        if key != q:
            i_p = rv.coord[self.inp.retrieve(self.inp.find_next(key + 1))][0]
            g = rv.g_mul(g, rv.g_inv(self._p(jp, i_p)))
        return q, i, g, j, m_minus, j_m, i_p

    def _discharge(self, delta):
        """Push a group-mass difference onto any surviving run entry."""
        rv = self.rv
        if delta == rv.g_identity:
            return
        other = self.cset.find_next(1)
        if other is not None:
            i2, g2, j2 = self._entry(other)
            self._dupd(other, rv.uncoord[(i2, rv.g_mul(g2, delta), j2)])

    def delete(self, key):
        self.steps += 1
        b = self.inp.retrieve(key)
        if b not in self.cls:
            self._ddel(key)
            self.inp.delete(key)
            self.count -= 1
            self._merge_check(key)
            return
        rv = self.rv
        out = self.down.inp
        q, i, g, j, m_minus, j_m, i_p = self._cut(key, b)
        if j_m is None and i_p is None:
            # single-letter run: discharge the mass drift onto another run
            self._ddel(q)
            self._discharge(g)
            self._merge_check(key)
        elif j_m is None:  # first letter of a longer run
            self._dupd(q, rv.uncoord[(i_p, g, j)])
            if m_minus is not None and out.retrieve(m_minus) in self.cls:
                self._merge(m_minus, q)
        elif i_p is None:  # last letter of a longer run
            self._ddel(q)
            self._dins(m_minus, rv.uncoord[(i, g, j_m)])
            nk = out.find_next(m_minus + 1)
            if nk is not None and out.retrieve(nk) in self.cls:
                self._merge(m_minus, nk)
        else:  # interior letter
            pm = self._p(j_m, i_p)
            if pm is not None:
                self._dupd(q, rv.uncoord[(i, rv.g_mul(g, pm), j)])
            else:
                self._dins(m_minus, rv.uncoord[(i, g, j_m)])
                self._dupd(q, rv.uncoord[(i_p, rv.g_identity, j)])

    def _merge_check(self, key):
        """After removing the separator entry at key, join the runs it
        separated."""
        out = self.down.inp
        m_minus = self.inp.find_prev(key)  # ends the entry before key
        if m_minus is None or out.retrieve(m_minus) not in self.cls:
            return
        q = out.find_next(key)
        if q is not None and out.retrieve(q) in self.cls:
            self._merge(m_minus, q)

    def _merge(self, k1, k2):
        """Join run entries at k1 < k2 when the sandwich entry is nonzero."""
        rv = self.rv
        i1, g1, j1 = self._entry(k1)
        i2, g2, j2 = self._entry(k2)
        p = self._p(j1, i2)
        if p is None:
            return
        self._ddel(k1)
        self._dupd(k2, rv.uncoord[(i1, rv.g_mul(g1, p, g2), j2)])

    def _enter(self, key, a):
        """Relabel the separator at key to the C-letter a in place."""
        out = self.down.inp
        self.inp.update(key, a)
        m_minus = self.inp.find_prev(key - 1)
        lm = None if m_minus is None else out.retrieve(m_minus)
        q = out.find_next(key + 1)
        lq = None if q is None else out.retrieve(q)
        self._join(key, a, m_minus, lm, q, lq, present=True)

    def _leave(self, key, old, a):
        """Relabel the C-letter old at key to the separator a in place: the
        run splits around key, and its fragments keep the run's mass."""
        rv = self.rv
        q, i, g, j, m_minus, j_m, i_p = self._cut(key, old, a)
        if j_m is not None:
            self._dins(m_minus, rv.uncoord[(i, g, j_m)])
            g = rv.g_identity
        if i_p is not None:
            self._dins(key, a)
            self._dupd(q, rv.uncoord[(i_p, g, j)])
            return
        self._dupd(key, a)
        if j_m is None:  # key was a single-letter run
            self._discharge(g)

    def update(self, key, a):
        self.steps += 1
        old = self.inp.retrieve(key)
        if old == a:
            return
        in_c_old = old in self.cls
        in_c_new = a in self.cls
        if not in_c_old and not in_c_new:
            # pass-through entries never interact with run structure
            self.inp.update(key, a)
            self.down.update(key, a)
            return
        if not in_c_old:
            self._enter(key, a)
            return
        if not in_c_new:
            self._leave(key, old, a)
            return
        rv = self.rv
        io, go, jo = rv.coord[old]
        ia, ga, ja = rv.coord[a]
        if io == ia and jo == ja:
            # same egg-box cell: every sandwich entry stays put, only the
            # group annotation of the covering entry moves
            self.inp.update(key, a)
            q = self.down.inp.find_next(key)
            i, g, j = self._entry(q)
            g2 = rv.g_mul(g, rv.g_inv(go), ga)
            if g2 != g:
                self.down.update(q, rv.uncoord[(i, g2, j)])
            return
        self.delete(key)
        self.insert(key, a)

    def validate(self):
        """Check the kept collapsed word against the exact collapse of the
        input word: the same entries up to per-run group masses, the same
        total mass and the same evaluation."""
        super().validate()
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
        self.down.validate()


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
        self.top.load(np.arange(1, self.n + 1, dtype=np.min_scalar_type(self.n)),
                      np.asarray(self.word, dtype=table_array(s0).dtype))
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
        self._steps += 1
        return self.top.eval()

    def _parts(self):
        for layer in self.layers:
            yield layer
            yield from layer.maps()


def make_sg_engine(semigroup, word, debug_checks=False):
    return SgEngine(semigroup, word, debug_checks=debug_checks)
