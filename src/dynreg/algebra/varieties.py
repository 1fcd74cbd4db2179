"""Equational variety membership, checked by exhaustive quantification.

Supported variety ids (strings):

    COM        xy = yx
    APERIODIC  x^(w+1) = x^w
    ZE         x^w y = y x^w
    ZG         x^(w+1) y = y x^(w+1)
    SG         x^(w+1) y x^w = x^w y x^(w+1)
    NILPOTENT  x^w y = y x^w = x^w   (requires a zero)
    DEFINITE   y x^w = x^w
    NIL_PLUS_ONE   monoid whose non-identity part is a nilpotent subsemigroup
    ("LOCAL", v)   every local monoid eSe satisfies v

check_variety returns a bool, memoized per semigroup table and variety;
find_violation returns a witness tuple or None.
"""

from __future__ import annotations

from ..errors import InternalError, UnsupportedVariety
from ..memo import memo
from .green import local_monoids

_SIMPLE = {
    "COM",
    "APERIODIC",
    "ZE",
    "ZG",
    "SG",
    "NILPOTENT",
    "DEFINITE",
    "NIL_PLUS_ONE",
}


@memo
def check_variety(s, v):
    return find_violation(s, v) is None


def find_violation(s, v):
    """First witness tuple violating the defining equation of v, or None."""
    if isinstance(v, tuple):
        if len(v) == 2 and v[0] == "LOCAL":
            for e, local, _incl in local_monoids(s):
                if not check_variety(local, v[1]):
                    return (e,)
            return None
        raise UnsupportedVariety(repr(v))
    if v not in _SIMPLE:
        raise UnsupportedVariety(repr(v))

    t = s.table
    n = s.size
    om = [s.omega_data(x) for x in range(n)]

    if v == "COM":
        for x in range(n):
            for y in range(x + 1, n):
                if t[x][y] != t[y][x]:
                    return (x, y)
        return None
    if v == "APERIODIC":
        for x in range(n):
            if om[x].plus_one != om[x].element:
                return (x,)
        return None
    if v == "ZE":
        for x in range(n):
            e = om[x].element
            for y in range(n):
                if t[e][y] != t[y][e]:
                    return (x, y)
        return None
    if v == "ZG":
        for x in range(n):
            g = om[x].plus_one
            for y in range(n):
                if t[g][y] != t[y][g]:
                    return (x, y)
        return None
    if v == "SG":
        for x in range(n):
            e = om[x].element
            g = om[x].plus_one
            for y in range(n):
                if t[t[g][y]][e] != t[t[e][y]][g]:
                    return (x, y)
        return None
    if v == "NILPOTENT":
        if s.zero is None:
            return ("no-zero",)
        for x in range(n):
            e = om[x].element
            for y in range(n):
                if t[e][y] != e or t[y][e] != e:
                    return (x, y)
        return None
    if v == "DEFINITE":
        for x in range(n):
            e = om[x].element
            for y in range(n):
                if t[y][e] != e:
                    return (x, y)
        return None
    # NIL_PLUS_ONE
    one = s.identity
    if one is None:
        return ("no-identity",)
    rest = [x for x in range(n) if x != one]
    if not rest:
        return ("trivial",)
    for x in rest:
        for y in rest:
            if t[x][y] == one:
                return (x, y)
    from .core import restriction

    sub, _ = restriction(s, rest)
    viol = find_violation(sub, "NILPOTENT")
    return None if viol is None else tuple(rest[w] if isinstance(w, int) else w for w in viol)


def nilpotency_degree(s):
    """Least k with S^k = {0} for a nilpotent semigroup s."""
    if s.zero is None:
        raise InternalError("nilpotency degree of a semigroup without zero")
    level = set(range(s.size))
    k = 1
    while level != {s.zero}:
        level = {s.table[x][y] for x in level for y in range(s.size)}
        k += 1
        if k > s.size + 1:
            raise UnsupportedVariety("semigroup is not nilpotent")
    return k


def definiteness_window(s):
    """Least k such that y*x1*...*xk = x1*...*xk for all choices."""
    absorbing = {
        v
        for v in range(s.size)
        if all(s.table[y][v] == v for y in range(s.size))
    }
    level = set(range(s.size))
    k = 1
    seen = set()
    while not level <= absorbing:
        key = frozenset(level)
        if key in seen:
            raise UnsupportedVariety("semigroup is not definite")
        seen.add(key)
        level = {s.table[x][y] for x in level for y in range(s.size)}
        k += 1
    return k
