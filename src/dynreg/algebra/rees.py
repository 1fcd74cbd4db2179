"""Rees matrix coordinates (G, I, J, P) of a regular J-class.

The base point e is the smallest idempotent of the class; I indexes R-classes
and J indexes L-classes, both ordered by smallest element id, so the output
is deterministic.
"""

from __future__ import annotations

from ..errors import InternalError, NotMaximal, NotRegular
from .core import restriction
from .green import green_j, l_equivalent_classes, r_equivalent_classes

ZERO = None  # sandwich-matrix entry for products leaving the class


class ReesRepresentation:
    def __init__(self, group, i_count, j_count, matrix, coord, uncoord):
        self.group = group                # structuring group (re-indexed)
        self.i_count = i_count
        self.j_count = j_count
        self.matrix = matrix              # j_count x i_count of group ids or ZERO
        self.coord = coord                # ambient id -> (i, g, j)
        self.uncoord = uncoord            # (i, g, j) -> ambient id
        self.g_identity = group.identity
        self._g_inverse = self._invert()

    def _invert(self):
        g = self.group
        inv = [None] * g.size
        for x in range(g.size):
            for y in range(g.size):
                if g.table[x][y] == g.identity:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise InternalError("structuring group element has no inverse")
        return inv

    def g_mul(self, *xs):
        acc = self.g_identity
        t = self.group.table
        for x in xs:
            acc = t[acc][x]
        return acc

    def g_inv(self, x):
        return self._g_inverse[x]


def rees_decompose(s, class_id, jstructure=None, require_maximal=True):
    """Coordinatize a regular J-class of s as a Rees matrix semigroup with 0."""
    js = jstructure if jstructure is not None else green_j(s)
    cls = js.classes[class_id]
    if not js.regular[class_id]:
        raise NotRegular(f"class {class_id} has no idempotent")
    if require_maximal and class_id not in js.maximal_classes:
        raise NotMaximal(f"class {class_id} is not maximal")

    cset = set(cls)
    r_classes = r_equivalent_classes(s, cls)
    l_classes = l_equivalent_classes(s, cls)
    r_of = {x: i for i, rc in enumerate(r_classes) for x in rc}
    l_of = {x: j for j, lc in enumerate(l_classes) for x in lc}

    e = min(x for x in cls if s.table[x][x] == x)
    ie, je = r_of[e], l_of[e]

    # structuring group: the H-class of e
    h_of_e = sorted(x for x in cls if r_of[x] == ie and l_of[x] == je)
    group, group_elems = restriction(s, h_of_e)
    if group.identity is None:
        raise InternalError("H-class of the base idempotent is not a group")
    g_index = {amb: gi for gi, amb in enumerate(group_elems)}

    # representatives: r_i in R_i /\ L_e (so r_i * e = r_i), q_j in R_e /\ L_j
    r_reps = []
    for i, rc in enumerate(r_classes):
        cands = [x for x in rc if l_of[x] == je]
        if not cands:
            raise InternalError("egg-box cell R_i /\\ L_e is empty")
        r_reps.append(e if i == ie else min(cands))
    q_reps = []
    for j, lc in enumerate(l_classes):
        cands = [x for x in lc if r_of[x] == ie]
        if not cands:
            raise InternalError("egg-box cell R_e /\\ L_j is empty")
        q_reps.append(e if j == je else min(cands))

    matrix = []
    for j in range(len(l_classes)):
        row = []
        for i in range(len(r_classes)):
            v = s.table[q_reps[j]][r_reps[i]]
            row.append(g_index[v] if v in g_index else ZERO)
        matrix.append(row)

    coord = {}
    uncoord = {}
    for x in cls:
        i, j = r_of[x], l_of[x]
        g = _solve_g(s, group, group_elems, r_reps[i], q_reps[j], x)
        coord[x] = (i, g, j)
        uncoord[(i, g, j)] = x
    if len(uncoord) != len(cls):
        raise InternalError("Rees coordinates are not a bijection")

    return ReesRepresentation(
        group=group,
        i_count=len(r_classes),
        j_count=len(l_classes),
        matrix=matrix,
        coord=coord,
        uncoord=uncoord,
    )


def _solve_g(s, group, group_elems, r_i, q_j, x):
    for gi, amb in enumerate(group_elems):
        if s.table[s.table[r_i][amb]][q_j] == x:
            return gi
    raise InternalError(f"element {x} has no Rees coordinate")
