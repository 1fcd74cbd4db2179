"""Transition monoid of a minimal complete DFA = the syntactic monoid."""

from __future__ import annotations

from ..algebra.core import FiniteSemigroup
from .dfa import minimize_dfa


class Morphism:
    """Letter-to-element map recognizing a language.

    eta extends multiplicatively to words; w is in the language iff its image
    lies in the accept set.
    """

    def __init__(self, target, eta, accept, alphabet):
        self.target = target      # FiniteSemigroup, a monoid
        self.eta = dict(eta)      # symbol -> element id
        self.accept = frozenset(accept)
        self.alphabet = list(alphabet)

    def image(self, word):
        acc = self.target.identity
        t = self.target.table
        eta = self.eta
        for a in word:
            acc = t[acc][eta[a]]
        return acc

    def member(self, word):
        return self.image(word) in self.accept

    def __repr__(self):
        return f"Morphism(|M|={self.target.size}, accept={sorted(self.accept)})"


def syntactic_monoid(d):
    """Morphism onto the syntactic monoid of a complete DFA's language.

    The DFA is minimized first; minimization is canonical, so a minimal input
    gives the same morphism. Elements are state transformations of the
    minimal DFA, closed under composition and including the identity; element
    names are shortest words achieving each transformation (the identity is
    named "1").
    """
    d = minimize_dfa(d)
    n = d.states
    ident = tuple(range(n))
    letter_tf = {
        a: tuple(d.delta[q][i] for q in range(n)) for i, a in enumerate(d.alphabet)
    }

    index = {ident: 0}
    elems = [ident]
    words = {ident: ""}
    frontier = [ident]
    while frontier:
        nxt = []
        for tf in frontier:
            for a in d.alphabet:
                la = letter_tf[a]
                comp = tuple(la[tf[q]] for q in range(n))
                if comp not in index:
                    index[comp] = len(elems)
                    elems.append(comp)
                    words[comp] = words[tf] + a
                    nxt.append(comp)
        frontier = nxt

    size = len(elems)
    table = [[None] * size for _ in range(size)]
    for i, tf in enumerate(elems):
        for j, tg in enumerate(elems):
            comp = tuple(tg[tf[q]] for q in range(n))
            table[i][j] = index[comp]
    names = [words[tf] if words[tf] else "1" for tf in elems]
    target = FiniteSemigroup(table, names=names, validate=False)
    accept = {i for i, tf in enumerate(elems) if tf[d.initial] in d.finals}
    eta = {a: index[letter_tf[a]] for a in d.alphabet}
    return Morphism(target, eta, accept, d.alphabet)
