"""Seeded inputs and the independent answer oracle for the benchmark.

Nothing here imports dynreg: the oracle that checks every answer is the
benchmark's own, stepping hand-written DFA tables.

A DFA is a dict {"alphabet": str, "delta": [[next state per letter]],
"initial": int, "finals": [int]}. A stream is the list of edits (pos,
letter) of one edit-and-revert cycle: every new substitution is undone
later, with at most K outstanding, so the word is back at its start after
the cycle and the expected answers repeat cycle after cycle.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np

K_OUTSTANDING = 4
STREAM_N = 1 << 20          # word length of the stream workloads
CYCLE_EDITS = 1 << 16       # edits per edit-and-revert cycle
CORPUS_SEED = 0             # the DFA corpus is fixed; --seed drives words and edits
CORPUS_RANDOM_DFAS = 12
CORPUS_N = 256
CORPUS_CYCLE_EDITS = 4096
CORPUS_MONOID_CAP = 40


def _s3_dfa():
    """Cayley graph of S3 on the generators (12) and (123); accepts words
    whose product is the identity permutation."""
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    gens = ((1, 0, 2), (1, 2, 0))
    delta = [[idx[tuple(g[p[k]] for k in range(3))] for g in gens] for p in perms]
    ident = idx[(0, 1, 2)]
    return {"alphabet": "ab", "delta": delta, "initial": ident, "finals": [ident]}


# (a+b+c)*bc*x(a+b+c)*: 0 = no x yet, 1 = no x yet and the suffix is in bc*,
# 2 = one well-placed x seen, 3 = dead.
_SG_DFA = {
    "alphabet": "abcx",
    "delta": [[0, 1, 0, 3], [0, 1, 1, 2], [2, 2, 2, 3], [3, 3, 3, 3]],
    "initial": 0,
    "finals": [2],
}

# a*b*: 0 = only a so far, 1 = in the b block, 2 = dead.
_LZG_DFA = {
    "alphabet": "ab",
    "delta": [[0, 1], [2, 1], [2, 2]],
    "initial": 0,
    "finals": [0, 1],
}

# ROADMAP item 2: Q_LZG, stable semigroup of 5 elements, not in ZG.
PINNED_DFA = {"alphabet": "ab", "delta": [[1, 2], [1, 1], [0, 2]], "initial": 0, "finals": [1]}

STREAM_WORKLOADS = {
    "edit-sg": ({"alphabet": "abcx", "regex": "(a+b+c)*bc*x(a+b+c)*"}, _SG_DFA),
    "edit-kary": (None, _s3_dfa()),
    "edit-lzg": ({"alphabet": "ab", "regex": "a*b*"}, _LZG_DFA),
}
WORKLOADS = (*STREAM_WORKLOADS, "corpus-setup")


def dfa_spec(dfa):
    """The language JSON the library reads for a DFA."""
    return {
        "alphabet": dfa["alphabet"],
        "dfa": {
            "states": len(dfa["delta"]),
            "delta": dfa["delta"],
            "initial": dfa["initial"],
            "finals": list(dfa["finals"]),
        },
    }


def _reach_sets(dfa, n):
    """R(r) = states from which some word of length exactly r is accepted.

    The sequence R(0), R(1), ... is eventually periodic; returns a function
    r -> R(r) valid for 0 <= r <= n.
    """
    delta = dfa["delta"]
    seq = [frozenset(dfa["finals"])]
    seen = {seq[0]: 0}
    while len(seq) <= n:
        prev = seq[-1]
        cur = frozenset(q for q, row in enumerate(delta) if any(t in prev for t in row))
        if cur in seen:
            start = seen[cur]
            period = len(seq) - start
            return lambda r: seq[r] if r < start else seq[start + (r - start) % period]
        seen[cur] = len(seq)
        seq.append(cur)
    return lambda r: seq[r]


def member_word(dfa, n, rng):
    """A random word of length n in the language, or None if there is none.

    Each letter is drawn among those that keep an accepting state reachable
    in exactly the remaining number of steps, so parity-style constraints
    (S3) never dead-end.
    """
    reach = _reach_sets(dfa, n)
    q = dfa["initial"]
    if q not in reach(n):
        return None
    delta, alphabet = dfa["delta"], dfa["alphabet"]
    choices = {}
    out = []
    for i in range(n):
        key = (q, reach(n - i - 1))
        opts = choices.get(key)
        if opts is None:
            opts = choices[key] = [j for j, t in enumerate(delta[q]) if t in key[1]]
        j = opts[int(rng.random() * len(opts))]
        out.append(alphabet[j])
        q = delta[q][j]
    return "".join(out)


def edit_cycle(word, alphabet, edits, rng, k=K_OUTSTANDING):
    """One edit-and-revert cycle of `edits` substitutions over `word`.

    A new substitution picks a uniform position not already outstanding and
    a uniform letter (possibly the current one); once k are outstanding the
    oldest is reverted. The cycle ends by reverting all that remain, so the
    word is unchanged after it.
    """
    cur = list(word)
    n = len(cur)
    pending = deque()
    busy = set()
    out = []
    for step in range(edits):
        left = edits - step
        if pending and (len(pending) == k or left <= len(pending)):
            pos, old = pending.popleft()
            busy.discard(pos)
            cur[pos] = old
            out.append((pos, old))
            continue
        pos = rng.randrange(n)
        while pos in busy:
            pos = rng.randrange(n)
        letter = alphabet[rng.randrange(len(alphabet))]
        pending.append((pos, cur[pos]))
        busy.add(pos)
        cur[pos] = letter
        out.append((pos, letter))
    return out


def transition_maps(dfa, cap=None):
    """State maps of the DFA's transition monoid, identity first, closed by
    breadth-first search; stops once more than cap are found.

    Returns (maps, index of each map, the letters' maps). The syntactic
    monoid is a quotient of this monoid, so len(maps) <= cap bounds it too.
    """
    delta = dfa["delta"]
    states = range(len(delta))
    letters = [tuple(delta[q][j] for q in states) for j in range(len(dfa["alphabet"]))]
    maps = [tuple(states)]
    index = {maps[0]: 0}
    i = 0
    while i < len(maps) and (cap is None or len(maps) <= cap):
        f = maps[i]
        for g in letters:
            h = tuple(g[f[q]] for q in states)   # f, then g
            if h not in index:
                index[h] = len(maps)
                maps.append(h)
        i += 1
    return maps, index, letters


class StateMapTree:
    """Segment tree of DFA state maps (the oracle for long words).

    State maps are interned as ids of the DFA's transition monoid, so every
    node is one small int and composition is a table lookup.
    """

    def __init__(self, dfa, word):
        alphabet = dfa["alphabet"]
        maps, index, letter_maps = transition_maps(dfa)
        states = range(len(dfa["delta"]))
        size = len(maps)
        self.comp = [[index[tuple(g[f[q]] for q in states)] for g in maps] for f in maps]
        finals = set(dfa["finals"])
        self.accept = [f[dfa["initial"]] in finals for f in maps]
        self.letter_id = {a: index[m] for a, m in zip(alphabet, letter_maps)}

        leaves = 1
        while leaves < len(word):
            leaves *= 2
        comp = np.array(self.comp, dtype=np.int32).reshape(size, size)
        lid = np.array([self.letter_id[a] for a in alphabet], dtype=np.int32)
        codes = np.frombuffer(word.encode(), dtype=np.uint8)
        table = np.zeros(256, dtype=np.int32)
        table[np.frombuffer(alphabet.encode(), dtype=np.uint8)] = lid
        level = np.zeros(leaves, dtype=np.int32)   # padding is the identity
        level[: len(word)] = table[codes]
        levels = [level]
        while len(level) > 1:
            level = comp[level[0::2], level[1::2]]
            levels.append(level)
        self.levels = [lv.tolist() for lv in levels]

    def update(self, pos, letter):
        comp, levels = self.comp, self.levels
        levels[0][pos] = self.letter_id[letter]
        for d in range(1, len(levels)):
            pos >>= 1
            below = levels[d - 1]
            levels[d][pos] = comp[below[2 * pos]][below[2 * pos + 1]]

    def member(self):
        return self.accept[self.levels[-1][0]]


def stream_answers(dfa, word, edits):
    """Expected membership answer after each edit, from the segment tree."""
    tree = StateMapTree(dfa, word)
    out = bytearray(len(edits))
    for i, (pos, letter) in enumerate(edits):
        tree.update(pos, letter)
        out[i] = tree.member()
    return bytes(out)


def scan_answers(dfa, word, edits):
    """Expected answers for short words: step the delta table letter by
    letter, over the words after every edit at once."""
    delta = np.array(dfa["delta"], dtype=np.int32)
    accept = np.zeros(len(delta), dtype=bool)
    accept[list(dfa["finals"])] = True
    col = {a: j for j, a in enumerate(dfa["alphabet"])}
    cur = np.array([col[a] for a in word], dtype=np.int32)
    words = np.empty((len(edits), len(word)), dtype=np.int32)
    for i, (pos, letter) in enumerate(edits):
        cur[pos] = col[letter]
        words[i] = cur
    q = np.full(len(edits), dfa["initial"], dtype=np.int32)
    for j in range(len(word)):
        q = delta[q, words[:, j]]
    return accept[q].astype(np.uint8).tobytes()


def corpus_dfas():
    """The fixed corpus: random DFAs with 2-5 states over 2-3 letters whose
    monoid has at most CORPUS_MONOID_CAP elements, drawn from CORPUS_SEED,
    plus the pinned ROADMAP item-2 DFA."""
    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < CORPUS_RANDOM_DFAS:
        states = rng.randint(2, 5)
        letters = rng.randint(2, 3)
        dfa = {
            "alphabet": "abc"[:letters],
            "delta": [[rng.randrange(states) for _ in range(letters)] for _ in range(states)],
            "initial": 0,
            "finals": [q for q in range(states) if rng.random() < 0.5],
        }
        if len(transition_maps(dfa, CORPUS_MONOID_CAP)[0]) <= CORPUS_MONOID_CAP:
            out.append(dfa)
    out.append(PINNED_DFA)
    return out


def _language(spec, dfa, n, cycle_edits, rng, answers):
    word = member_word(dfa, n, rng)
    if word is None:   # no word of this length in L: start anywhere
        word = "".join(rng.choice(dfa["alphabet"]) for _ in range(n))
    edits = edit_cycle(word, dfa["alphabet"], cycle_edits, rng)
    expected = answers(dfa, word, edits)
    return {"spec": spec, "word": word, "edits": edits, "expected": expected}


def make_inputs(workload, seed, part=0):
    """List of languages, each {spec, word, edits, expected}, for a workload.

    A run draws one part per worker, so its figures average over several
    words and edit cycles instead of one.
    """
    rng = random.Random(f"{workload}/{seed}/{part}")
    if workload == "corpus-setup":
        return [
            _language(dfa_spec(d), d, CORPUS_N, CORPUS_CYCLE_EDITS, rng, scan_answers)
            for d in corpus_dfas()
        ]
    spec, dfa = STREAM_WORKLOADS[workload]
    return [_language(spec or dfa_spec(dfa), dfa, STREAM_N, CYCLE_EDITS, rng, stream_answers)]
