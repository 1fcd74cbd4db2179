"""Green's relations: J-classes and their order, R- and L-classes, local
monoids.

Each relation compares principal ideals: x J y when S^1 x S^1 = S^1 y S^1,
x R y when xS^1 = yS^1, x L y when S^1 x = S^1 y. An ideal is what reach
gets to from x by multiplying on the allowed sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import reach, restriction


def _ideal(s, x, left, right):
    """The principal ideal of x as a frozenset: S^1 x S^1 with both sides,
    xS^1 with right alone, S^1 x with left alone."""
    t = s.table

    def step(v):
        return (t[v] if right else []) + ([row[v] for row in t] if left else [])

    return frozenset(reach([x], step))


@dataclass
class JStructure:
    class_of: list            # element id -> class id
    classes: list             # class id -> sorted tuple of element ids
    less: set = field(repr=False)  # strict pairs (lower, higher) of class ids
    maximal_classes: list = None
    regular: list = None      # per-class flag: contains an idempotent


def green_j(s):
    """J-classes via materialized two-sided ideals, ordered by least element."""
    ideals = {x: _ideal(s, x, left=True, right=True) for x in range(s.size)}
    classes = _partition_by(ideals, range(s.size))
    class_of = [None] * s.size
    for cid, cls in enumerate(classes):
        for x in cls:
            class_of[x] = cid
    ideal_of_class = [ideals[cls[0]] for cls in classes]
    m = len(classes)
    less = {(c1, c2) for c1 in range(m) for c2 in range(m)
            if ideal_of_class[c1] < ideal_of_class[c2]}
    maximal = [c for c in range(m) if not any((c, d) in less for d in range(m))]
    idem = set(s.idempotents)
    regular = [any(x in idem for x in cls) for cls in classes]
    return JStructure(class_of, classes, less, maximal, regular)


def r_equivalent_classes(s, elements):
    """Partition of the given elements by xS^1 = yS^1, ordered by least id."""
    ideals = {x: _ideal(s, x, left=False, right=True) for x in elements}
    return _partition_by(ideals, elements)


def l_equivalent_classes(s, elements):
    ideals = {x: _ideal(s, x, left=True, right=False) for x in elements}
    return _partition_by(ideals, elements)


def _partition_by(ideals, elements):
    groups = {}
    for x in sorted(elements):
        groups.setdefault(ideals[x], []).append(x)
    parts = sorted(groups.values(), key=lambda g: g[0])
    return [tuple(g) for g in parts]


def local_monoids(s):
    """All local monoids eSe, one per idempotent e.

    Returns a list of (e, monoid, inclusion) with inclusion[i] the id in s of
    local element i.
    """
    out = []
    for e in s.idempotents:
        members = sorted({s.table[s.table[e][x]][e] for x in range(s.size)})
        local, incl = restriction(s, members)
        out.append((e, local, incl))
    return out
