"""Complete DFAs: subset construction from the regex AST, Moore minimization.

States are 0-based with the canonical ordering given by BFS from the initial
state over the alphabet in order, so minimal DFAs are unique on the nose.
Both walks, the subset construction's and minimization's, are reach's
breadth-first order.
"""

from __future__ import annotations

from collections.abc import Sequence
from numbers import Integral

from ..algebra.core import reach
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
    """Subset construction; the result is complete (dead state included).

    The subsets are the epsilon-closed ones reach gets to from the closure
    of the start state, numbered in breadth-first order over the alphabet.
    """
    eps, moves, start, accept = _thompson(ast, alphabet)

    def closure(states):
        return frozenset(reach(states, eps.__getitem__))

    rows = []

    def step(cur):
        rows.append([closure({t for q in cur for t in moves[q].get(a, ())}) for a in alphabet])
        return rows[-1]

    order = reach([closure([start])], step)
    index = {st: i for i, st in enumerate(order)}
    delta = [[index[st] for st in row] for row in rows]
    finals = {i for i, st in enumerate(order) if accept in st}
    return Dfa(alphabet, delta, 0, finals)


def minimize_dfa(d):
    """Unique minimal complete DFA with BFS-canonical state numbering."""
    # drop unreachable states
    live = reach([d.initial], d.delta.__getitem__)
    ids = {q: i for i, q in enumerate(live)}
    delta = [[ids[v] for v in d.delta[q]] for q in live]
    finals = {ids[q] for q in d.finals if q in ids}
    n = len(live)

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

    # canonical BFS order over the blocks, each read off its first state
    reps = {}
    for q in range(n):
        reps.setdefault(block[q], q)
    bfs = reach([block[0]], lambda b: [block[v] for v in delta[reps[b]]])
    order = {b: i for i, b in enumerate(bfs)}
    final_delta = [[order[block[v]] for v in delta[reps[b]]] for b in bfs]
    final_finals = {order[b] for b in bfs if reps[b] in finals}
    return Dfa(d.alphabet, final_delta, 0, final_finals)


def is_minimal(d):
    """All states reachable and pairwise distinguishable."""
    m = minimize_dfa(d)
    return m.states == d.states
