"""Shared test utilities: fast fold oracle and gallery-wide engine setup."""

import numpy as np

from dynreg.engines.base import make_naive_engine


class FoldOracle:
    """Naive left-to-right evaluation, vectorized with pairwise reduction.

    Semantically identical to NaiveEngine (the table is validated associative
    at construction), just fast enough to shadow every query at n = 4096.
    """

    kind = "fold-oracle"

    def __init__(self, semigroup, word):
        self.semigroup = semigroup
        self.table = np.asarray(semigroup.table, dtype=np.int64)
        self.word = np.asarray(word, dtype=np.int64)
        self.n = len(word)

    def update(self, pos, letter):
        self.word[pos] = letter

    def query(self):
        if self.n == 0:
            return None
        cur = self.word
        t = self.table
        while len(cur) > 1:
            odd = None
            if len(cur) % 2:
                odd = cur[-1:]
                cur = cur[:-1]
            cur = t[cur[0::2], cur[1::2]]
            if odd is not None:
                cur = np.concatenate([cur, odd])
        return int(cur[0])


def run_differential(s, factory, n, ops, rng, oracle_cls=FoldOracle):
    """ops random (update, query) rounds; returns mismatch count."""
    word = [rng.randrange(s.size) for _ in range(n)]
    eng = factory(s, list(word))
    oracle = oracle_cls(s, list(word))
    mismatches = 0
    if eng.query() != oracle.query():
        mismatches += 1
    for _ in range(ops):
        p = rng.randrange(n)
        a = rng.randrange(s.size)
        eng.update(p, a)
        oracle.update(p, a)
        if eng.query() != oracle.query():
            mismatches += 1
    return mismatches


def exhaustive_small_words(s, factory, max_len):
    """All words up to max_len; every single substitution checked."""
    import itertools

    naive = make_naive_engine
    for n in range(1, max_len + 1):
        for word in itertools.product(range(s.size), repeat=n):
            eng = factory(s, list(word))
            ora = naive(s, list(word))
            if eng.query() != ora.query():
                return (word, None, None)
            for pos in range(n):
                old = word[pos]
                for a in range(s.size):
                    eng.update(pos, a)
                    ora.update(pos, a)
                    if eng.query() != ora.query():
                        return (word, pos, a)
                eng.update(pos, old)
                ora.update(pos, old)
    return None
