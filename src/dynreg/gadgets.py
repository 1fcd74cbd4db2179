"""Constructive reductions between prefix problems and dynamic membership.

Each adapter drives a target engine through probe-then-restore queries: a
query performs a bounded number of updates on the target word, reads the
answer, and puts every probed cell back, leaving the target state untouched.
"""

from __future__ import annotations

from .algebra.varieties import find_violation
from .engines.dispatch import make_auto_engine
from .engines.language import make_language_engine
from .engines.prefix import make_prefix_engine
from .errors import InternalError, NotAWitness, PositionOutOfRange, RangeError
from .memo import memo
from .syntactic import analyze_dfa, analyze_regex
from .syntactic.dfa import Dfa


def find_ze_witness(m):
    """A pair (x, y) with x^w y != y x^w, or None when m is in ZE."""
    viol = find_violation(m, "ZE")
    return None if viol is None else viol


class PrefixU1ViaMonoid:
    """Threshold queries on a 0/1 word through one engine for a monoid not
    in ZE.

    The binary word w of length n is encoded on 2n+2 cells: cell 2i holds
    x^w when w_i = 0 (the neutral element otherwise) and the final cell
    pins one x^w sentinel. A query writes y next to the threshold position,
    evaluates, and restores; the evaluation is x^w y x^w exactly when the
    prefix contains a zero. If only the mirrored inequality holds the word
    is maintained reversed and updates flip position.
    """

    source_problem = "prefix-u1"

    def __init__(self, monoid, x, y, n, word=None):
        if monoid.identity is None:
            raise RangeError("the encoding needs a neutral element")
        om = monoid.omega_data(x)
        e = monoid.identity
        t = monoid.table
        xw = om.element
        y_xw = t[y][xw]
        xw_y = t[xw][y]
        xw_y_xw = t[t[xw][y]][xw]
        if y_xw != xw_y_xw:
            self.mirror = False
            self.val_clean = y_xw
        elif xw_y != xw_y_xw:
            self.mirror = True
            self.val_clean = xw_y
        else:
            raise NotAWitness("neither orientation separates the evaluations")
        self.val_zero = xw_y_xw
        self.monoid = monoid
        self.xw = xw
        self.y = y
        self.e = e
        self.n = n
        self.bits = list(word) if word is not None else [1] * n
        if len(self.bits) != n:
            raise RangeError("initial word length mismatch")
        self.length = 2 * n + 2
        enc = [e] * self.length
        enc[self.length - 1] = xw  # sentinel at cell 2n+2
        for i, b in enumerate(self.bits):
            if b == 0:
                enc[2 * i + 1] = xw  # cell 2(i+1) in 1-based terms
        if self.mirror:
            enc.reverse()
        self.engine = make_auto_engine(monoid, enc)
        self.queries = 0

    def _pos(self, p):
        return (self.length - 1 - p) if self.mirror else p

    def set_bit(self, i, bit):
        """Write bit (0 or 1) at position i of the binary word (0-based)."""
        if not (0 <= i < self.n):
            raise PositionOutOfRange(f"position {i} outside 0..{self.n - 1}")
        self.bits[i] = bit
        self.engine.update(self._pos(2 * i + 1), self.xw if bit == 0 else self.e)

    def query(self, j):
        """True iff some position < j holds a 0 (prefix of length j)."""
        if not (0 <= j <= self.n):
            raise PositionOutOfRange(f"threshold {j} outside 0..{self.n}")
        self.queries += 1
        if j == 0:
            return False
        probe = self._pos(2 * j)  # cell 2j+1 in 1-based terms
        self.engine.update(probe, self.y)
        val = self.engine.query()
        self.engine.update(probe, self.e)
        if val == self.val_zero:
            return True
        if val == self.val_clean:
            return False
        raise RangeError(f"unexpected evaluation {val}")


_analyze_regex = memo(analyze_regex)


def _lang_engine_for(regex_text, alphabet, word):
    m, sd, rep = _analyze_regex(regex_text, alphabet)
    return make_language_engine(m, sd, rep, word), (m, sd, rep)


def _require_direction(adapter, direction):
    """Each adapter query exists in one direction only; raises rather than
    asserts, so the check also holds under python -O."""
    if adapter.direction != direction:
        raise InternalError(
            f"{type(adapter).__name__} built {adapter.direction!r} has no "
            f"{direction!r} query"
        )


class LangU2Adapter:
    """Both directions of the prefix-U2 <-> membership-in-L_U2 equivalence,
    L_U2 = (a+b+c)*bc*x(a+b+c)*."""

    def __init__(self, direction, word):
        if direction not in ("problem-to-language", "language-to-problem"):
            raise RangeError(f"unknown direction {direction!r}")
        self.direction = direction
        self.queries = 0
        if direction == "problem-to-language":
            # maintain a prefix-U2 word over {1, a, b} via an L_U2 engine
            self.w = list(word)  # letters "1", "a", "b"
            enc = ["c" if c == "1" else c for c in self.w]
            self.engine, _ = _lang_engine_for(
                "(a+b+c)*bc*x(a+b+c)*", "abcx", enc
            )
        else:
            # maintain membership in L_U2 via a prefix engine + x-list
            from .gallery import u2

            self.w = list(word)  # letters over {a, b, c, x}
            m = u2()
            self.ids = {"1": m.identity, "a": m.id_of("a"), "b": m.id_of("b")}
            enc = [self.ids[{"a": "a", "b": "b"}.get(c, "1")] for c in self.w]
            self.prefix_engine = make_prefix_engine(m, enc)
            self.m = m
            self.x_positions = set(i for i, c in enumerate(self.w) if c == "x")

    def set_letter(self, i, c):
        if self.direction == "problem-to-language":
            if c not in ("1", "a", "b"):
                raise RangeError(f"letter {c!r} not in the prefix-U2 alphabet")
            self.w[i] = c
            self.engine.update(i, "c" if c == "1" else c)
        else:
            if c not in ("a", "b", "c", "x"):
                raise RangeError(f"letter {c!r} not in the L_U2 alphabet")
            if self.w[i] == "x":
                self.x_positions.discard(i)
            self.w[i] = c
            if c == "x":
                self.x_positions.add(i)
            self.prefix_engine.update(
                i, self.ids[c] if c in ("a", "b") else self.ids["1"]
            )

    def prefix_query(self, k):
        """Last non-neutral among the first k letters: '1', 'a', or 'b'."""
        _require_direction(self, "problem-to-language")
        if not (1 <= k <= len(self.w)):
            raise PositionOutOfRange(f"prefix {k} outside 1..{len(self.w)}")
        self.queries += 1
        if self.w[k - 1] != "1":
            return self.w[k - 1]
        eng = self.engine
        eng.update(k - 1, "x")
        member = eng.query()
        if member:
            eng.update(k - 1, "c")
            return "b"
        if k == 1:
            # nothing can precede the probe: the prefix is a single neutral
            eng.update(k - 1, "c")
            return "1"
        if self.w[0] != "1":
            eng.update(k - 1, "c")
            return "a"
        eng.update(0, "b")
        member = eng.query()
        eng.update(0, "c")
        eng.update(k - 1, "c")
        return "1" if member else "a"

    def member_query(self):
        """Is the maintained word in L_U2?"""
        _require_direction(self, "language-to-problem")
        self.queries += 1
        if len(self.x_positions) != 1:
            return False
        (pos,) = self.x_positions
        if pos == 0:
            return False
        val = self.prefix_engine.prefix(pos)  # letters before the x
        return val == self.ids["b"]


class LangU1Adapter:
    """Both directions of the prefix-U1 <-> membership-in-L_U1 equivalence,
    L_U1 = c*x(a+c)*."""

    def __init__(self, direction, word):
        if direction not in ("problem-to-language", "language-to-problem"):
            raise RangeError(f"unknown direction {direction!r}")
        self.direction = direction
        self.queries = 0
        if direction == "problem-to-language":
            self.w = list(word)  # bits 0/1
            enc = ["a" if b == 0 else "c" for b in self.w]
            self.engine, _ = _lang_engine_for("c*x(a+c)*", "acx", enc)
        else:
            from .gallery import u1

            self.w = list(word)  # letters over {a, c, x}
            m = u1()
            self.zero = m.zero
            self.one = m.identity
            enc = [self.zero if c == "a" else self.one for c in self.w]
            self.prefix_engine = make_prefix_engine(m, enc)
            self.x_positions = set(i for i, c in enumerate(self.w) if c == "x")

    def set_letter(self, i, c):
        if self.direction == "problem-to-language":
            self.w[i] = c  # bit
            self.engine.update(i, "a" if c == 0 else "c")
        else:
            if self.w[i] == "x":
                self.x_positions.discard(i)
            self.w[i] = c
            if c == "x":
                self.x_positions.add(i)
            self.prefix_engine.update(i, self.zero if c == "a" else self.one)

    def prefix_query(self, j):
        """True iff some position < j holds a 0 (prefix of length j)."""
        _require_direction(self, "problem-to-language")
        if not (1 <= j <= len(self.w)):
            raise PositionOutOfRange(f"prefix {j} outside 1..{len(self.w)}")
        self.queries += 1
        if self.w[j - 1] == 0:
            return True
        eng = self.engine
        eng.update(j - 1, "x")
        member = eng.query()
        eng.update(j - 1, "c")
        return not member

    def member_query(self):
        """Is the maintained word in L_U1?"""
        _require_direction(self, "language-to-problem")
        self.queries += 1
        if len(self.x_positions) != 1:
            return False
        (pos,) = self.x_positions
        return self.prefix_engine.prefix(pos) != self.zero


def marked_infix_dfa(dfa, mark="#"):
    """DFA of Sigma* mark L mark Sigma* over the extended alphabet."""
    if mark in dfa.alphabet:
        raise RangeError(f"mark {mark!r} already in the alphabet")
    alphabet = list(dfa.alphabet) + [mark]
    na = len(dfa.alphabet)
    n = dfa.states
    pre, post, dead = n, n + 1, n + 2
    delta = []
    for q in range(n):
        row = [dfa.delta[q][a] for a in range(na)]
        row.append(post if q in dfa.finals else dead)
        delta.append(row)
    delta.append([pre] * na + [dfa.initial])        # pre: waiting for first mark
    delta.append([post] * na + [dead])              # post: saw both marks
    delta.append([dead] * (na + 1))                 # dead
    return Dfa(alphabet, delta, pre, {post})


class InfixAdapter:
    """Infix membership queries through the marked language Sigma* x L x Sigma*."""

    def __init__(self, dfa, word, mark="#"):
        self.base_dfa = dfa
        self.mark = mark
        self.w = list(word)
        self.n = len(word)
        if self.n == 0:
            raise RangeError("infix adapter needs a non-empty word")
        pad = dfa.alphabet[0]
        marked = marked_infix_dfa(dfa, mark)
        self.morphism, self.stable_d, self.report = analyze_dfa(marked)
        padded = [pad] + list(word) + [pad]
        self.engine = make_language_engine(
            self.morphism, self.stable_d, self.report, padded
        )
        self.queries = 0

    def set_letter(self, i, c):
        if not (0 <= i < self.n):
            raise PositionOutOfRange(f"position {i} outside 0..{self.n - 1}")
        if c not in self.base_dfa.alphabet:
            raise RangeError(f"letter {c!r} not in the alphabet")
        self.w[i] = c
        self.engine.update(i + 1, c)

    def infix_query(self, i, j):
        """Is w[i..j] (inclusive, 0-based) in L?"""
        if i > j:
            raise RangeError(f"empty infix ({i},{j})")
        if not (0 <= i and j < self.n):
            raise PositionOutOfRange(f"infix ({i},{j}) outside the word")
        self.queries += 1
        eng = self.engine
        left, right = i, j + 2  # padded positions around the infix
        old_left = eng.word[left]
        old_right = eng.word[right]
        eng.update(left, self.mark)
        eng.update(right, self.mark)
        ans = eng.query()
        eng.update(left, old_left)
        eng.update(right, old_right)
        return ans

