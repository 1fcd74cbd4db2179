"""Complete DFAs: subset construction from the regex AST, Moore minimization.

States are 0-based with the canonical ordering given by BFS from the initial
state over the alphabet in order, so minimal DFAs are unique on the nose.
"""

from __future__ import annotations

from collections.abc import Sequence
from numbers import Integral

from ..errors import RangeError


def _check_state(q, states, what):
    if not isinstance(q, Integral) or isinstance(q, bool) or not 0 <= q < states:
        raise RangeError(f"{what} {q!r} is not a state in 0..{states - 1}")


class Dfa:
    """A complete DFA; every state, target and final is checked to be an
    integer in 0..states-1, and the alphabet's letters to be distinct."""

    def __init__(self, alphabet, delta, initial, finals):
        self.alphabet = list(alphabet)
        self.symbol_index = {a: i for i, a in enumerate(self.alphabet)}
        if len(self.symbol_index) != len(self.alphabet):
            raise RangeError(f"repeated letter in the alphabet {self.alphabet!r}")
        if not isinstance(delta, Sequence) or not all(
            isinstance(row, Sequence) and len(row) == len(self.alphabet) for row in delta
        ):
            raise RangeError(f"delta needs one row of {len(self.alphabet)} targets per state")
        self.states = len(delta)
        for row in delta:
            for q in row:
                _check_state(q, self.states, "target")
        _check_state(initial, self.states, "initial state")
        finals = list(finals)
        for q in finals:
            _check_state(q, self.states, "final state")
        self.delta = [list(row) for row in delta]
        self.initial = initial
        self.finals = frozenset(finals)

    def step(self, state, symbol):
        return self.delta[state][self.symbol_index[symbol]]

    def accepts(self, word):
        q = self.initial
        for a in word:
            q = self.delta[q][self.symbol_index[a]]
        return q in self.finals

    def __repr__(self):
        return f"Dfa(states={self.states}, finals={sorted(self.finals)})"


def _thompson(ast, alphabet):
    """Build an epsilon-NFA: returns (n_states, eps, moves, start, accept)."""
    eps = []
    moves = []

    def new_state():
        eps.append([])
        moves.append({})
        return len(eps) - 1

    def build(node):
        kind = node[0]
        s, t = new_state(), new_state()
        if kind == "empty":
            pass
        elif kind == "eps":
            eps[s].append(t)
        elif kind == "lit":
            moves[s].setdefault(node[1], []).append(t)
        elif kind == "union":
            s1, t1 = build(node[1])
            s2, t2 = build(node[2])
            eps[s] += [s1, s2]
            eps[t1].append(t)
            eps[t2].append(t)
        elif kind == "cat":
            s1, t1 = build(node[1])
            s2, t2 = build(node[2])
            eps[s].append(s1)
            eps[t1].append(s2)
            eps[t2].append(t)
        elif kind == "star":
            s1, t1 = build(node[1])
            eps[s] += [s1, t]
            eps[t1] += [s1, t]
        else:
            raise ValueError(f"unknown AST node {node!r}")
        return s, t

    start, accept = build(ast)
    return eps, moves, start, accept


def regex_to_dfa(ast, alphabet):
    """Subset construction; the result is complete (dead state included)."""
    eps, moves, start, accept = _thompson(ast, alphabet)

    def closure(states):
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for r in eps[q]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    init = closure({start})
    index = {init: 0}
    order = [init]
    delta = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for a in alphabet:
            nxt = closure(
                {t for q in cur for t in moves[q].get(a, ())}
            )
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta.append(row)
        i += 1
    finals = {i for i, st in enumerate(order) if accept in st}
    return Dfa(alphabet, delta, 0, finals)


def minimize_dfa(d):
    """Unique minimal complete DFA with BFS-canonical state numbering."""
    # drop unreachable states
    reach = [d.initial]
    seen = {d.initial}
    for q in reach:
        for v in d.delta[q]:
            if v not in seen:
                seen.add(v)
                reach.append(v)
    ids = {q: i for i, q in enumerate(reach)}
    delta = [[ids[d.delta[q][a]] for a in range(len(d.alphabet))] for q in reach]
    finals = {ids[q] for q in d.finals if q in ids}
    n = len(reach)

    # Moore refinement
    block = [1 if q in finals else 0 for q in range(n)]
    while True:
        sig = {}
        nxt = [None] * n
        for q in range(n):
            key = (block[q], tuple(block[v] for v in delta[q]))
            if key not in sig:
                sig[key] = len(sig)
            nxt[q] = sig[key]
        if nxt == block:
            break
        block = nxt

    reps = {}
    for q in range(n):
        reps.setdefault(block[q], q)
    # canonical BFS order over blocks
    bfs = [block[0]]
    seen_b = {block[0]}
    out_delta = []
    for b in bfs:
        q = reps[b]
        row = []
        for a in range(len(d.alphabet)):
            tb = block[delta[q][a]]
            if tb not in seen_b:
                seen_b.add(tb)
                bfs.append(tb)
            row.append(tb)
        out_delta.append(row)
    order = {b: i for i, b in enumerate(bfs)}
    final_delta = [[order[v] for v in row] for row in out_delta]
    final_finals = {order[b] for b in set(block) if reps[b] in finals}
    return Dfa(d.alphabet, final_delta, 0, final_finals)


def is_minimal(d):
    """All states reachable and pairwise distinguishable."""
    m = minimize_dfa(d)
    return m.states == d.states
