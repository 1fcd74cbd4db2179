"""Transition monoid of a minimal complete DFA = the syntactic monoid."""

from __future__ import annotations

from ..algebra.core import FiniteSemigroup, reach
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
    minimal DFA, reached from the identity by the letters' transformations:
    ids follow reach's breadth-first order, and each element is named by the
    first word that reaches it, which is a shortest one (the identity is
    named "1").
    """
    d = minimize_dfa(d)
    letters = [tuple(col) for col in zip(*d.delta)]  # letter i as a transformation
    succ = []  # succ[i][a]: element i followed by letter a, as a transformation

    def step(tf):
        succ.append([tuple([la[q] for q in tf]) for la in letters])
        return succ[-1]

    elems = reach([tuple(range(d.states))], step)
    index = {tf: i for i, tf in enumerate(elems)}
    right = [[index[tf] for tf in row] for row in succ]
    # The scan below meets each element first where reach did, so a new
    # element always takes the next id; made lists, for the elements after
    # the identity in id order, the (i, a) with the element equal to i*a
    words, made = [""], []
    for i, row in enumerate(right):
        for a, j in enumerate(row):
            if j == len(words):
                words.append(words[i] + d.alphabet[a])
                made.append((i, a))
    # x*j = (x*i)*a with i < j: each row fills from the identity's column
    table = []
    for x in range(len(elems)):
        row = [x]
        for i, a in made:
            row.append(right[row[i]][a])
        table.append(row)
    target = FiniteSemigroup(table, names=[w or "1" for w in words], validate=False)
    accept = {i for i, tf in enumerate(elems) if tf[d.initial] in d.finals}
    return Morphism(target, dict(zip(d.alphabet, right[0])), accept, d.alphabet)
