"""Green's J-order machinery: classes, order, maximality, local monoids."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import restriction


def _two_sided_ideal(s, x):
    """S^1 x S^1 as a frozenset, by closure under one-sided multiplications."""
    seen = {x}
    stack = [x]
    t = s.table
    n = s.size
    while stack:
        v = stack.pop()
        row = t[v]
        for u in range(n):
            for w in (row[u], t[u][v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return frozenset(seen)


def _one_sided_ideal(s, x, right):
    seen = {x}
    stack = [x]
    t = s.table
    n = s.size
    while stack:
        v = stack.pop()
        for u in range(n):
            w = t[v][u] if right else t[u][v]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


@dataclass
class JStructure:
    class_of: list            # element id -> class id
    classes: list             # class id -> sorted tuple of element ids
    less: set = field(repr=False)  # strict pairs (lower, higher) of class ids
    maximal_classes: list = None
    regular: list = None      # per-class flag: contains an idempotent


def green_j(s):
    """J-classes via materialized two-sided ideals."""
    ideals = [_two_sided_ideal(s, x) for x in range(s.size)]
    classes = []
    class_of = [None] * s.size
    ideal_of_class = []
    index = {}
    for x in range(s.size):
        key = ideals[x]
        if key not in index:
            index[key] = len(classes)
            classes.append([])
            ideal_of_class.append(key)
        cid = index[key]
        class_of[x] = cid
        classes[cid].append(x)
    # deterministic class ids: order by smallest element id
    order = sorted(range(len(classes)), key=lambda c: classes[c][0])
    remap = {old: new for new, old in enumerate(order)}
    classes = [tuple(sorted(classes[old])) for old in order]
    ideal_of_class = [ideal_of_class[old] for old in order]
    class_of = [remap[c] for c in class_of]

    less = set()
    m = len(classes)
    for c1 in range(m):
        for c2 in range(m):
            if c1 != c2 and ideal_of_class[c1] < ideal_of_class[c2]:
                less.add((c1, c2))
    maximal = [c for c in range(m) if not any((c, d) in less for d in range(m))]
    idem = set(s.idempotents)
    regular = [any(x in idem for x in cls) for cls in classes]
    return JStructure(class_of, classes, less, maximal, regular)


def r_equivalent_classes(s, elements):
    """Partition of the given elements by xS^1 = yS^1, ordered by least id."""
    ideals = {x: _one_sided_ideal(s, x, right=True) for x in elements}
    return _partition_by(ideals, elements)


def l_equivalent_classes(s, elements):
    ideals = {x: _one_sided_ideal(s, x, right=False) for x in elements}
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
