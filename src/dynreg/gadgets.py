"""Constructive reductions between prefix problems and dynamic membership.

One class per reduction:
- PrefixU1ViaMonoid keeps a prefix-U1 bit word through one engine for any
  monoid outside ZE (a witness pair from find_violation(m, "ZE"));
- PrefixU1ViaLanguage and PrefixU2ViaLanguage keep the prefix-U1 and
  prefix-U2 words through an engine for L_U1 = c*x(a+c)* and
  L_U2 = (a+b+c)*bc*x(a+b+c)*;
- MembershipViaPrefix keeps membership in L_U1 or L_U2 through the prefix
  engine of U1 or U2;
- InfixAdapter answers infix membership through the marked language.

Each query drives its engine through probe-then-restore updates: it performs
a bounded number of updates on the engine's word, reads the answer, and puts
every probed cell back, leaving the engine state untouched. Every setter
checks its position and its letter before it changes anything.
"""

from __future__ import annotations

from .engines.dispatch import make_auto_engine
from .engines.language import make_language_engine
from .engines.prefix import make_prefix_engine
from .errors import NotAWitness, PositionOutOfRange, RangeError
from .memo import memo
from .syntactic import analyze_dfa, analyze_regex
from .syntactic.dfa import Dfa

_BITS = (0, 1)


def _checked(word, letters, what):
    """word as a list; RangeError for the first letter outside letters."""
    word = list(word)
    for c in word:
        if c not in letters:
            raise RangeError(f"{c!r} is not a {what}")
    return word


def _check_edit(i, c, n, letters, what):
    """PositionOutOfRange or RangeError for an edit that would write c at
    position i of a word of length n."""
    if not (0 <= i < n):
        raise PositionOutOfRange(f"position {i} outside 0..{n - 1}")
    _checked([c], letters, what)


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
        self.bits = _checked(word, _BITS, "bit") if word is not None else [1] * n
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
        _check_edit(i, bit, self.n, _BITS, "bit")
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
    return make_language_engine(*_analyze_regex(regex_text, alphabet), word)


def _check_threshold(j, n):
    if not (1 <= j <= n):
        raise PositionOutOfRange(f"prefix {j} outside 1..{n}")


class PrefixU1ViaLanguage:
    """Prefix-U1 through an L_U1 engine: bit 0 is kept as a and bit 1 as c.
    Writing x at position j-1 gives a word in L_U1 = c*x(a+c)* exactly when
    no a, no 0 bit, comes before it."""

    def __init__(self, bits):
        self.w = _checked(bits, _BITS, "bit")
        self.engine = _lang_engine_for("c*x(a+c)*", "acx", ["a" if b == 0 else "c" for b in self.w])
        self.queries = 0

    def set_bit(self, i, bit):
        _check_edit(i, bit, len(self.w), _BITS, "bit")
        self.w[i] = bit
        self.engine.update(i, "a" if bit == 0 else "c")

    def query(self, j):
        """True iff some position < j holds a 0 (prefix of length j)."""
        _check_threshold(j, len(self.w))
        self.queries += 1
        if self.w[j - 1] == 0:
            return True
        eng = self.engine
        eng.update(j - 1, "x")
        member = eng.query()
        eng.update(j - 1, "c")
        return not member


class PrefixU2ViaLanguage:
    """Prefix-U2 over {1, a, b} through an L_U2 engine, the neutral letter 1
    kept as c. Writing x at position k-1 gives a word in
    L_U2 = (a+b+c)*bc*x(a+b+c)* exactly when the last non-neutral letter
    before it is b."""

    LETTERS = ("1", "a", "b")

    def __init__(self, word):
        self.w = _checked(word, self.LETTERS, "prefix-U2 letter")
        self.engine = _lang_engine_for(
            "(a+b+c)*bc*x(a+b+c)*", "abcx", ["c" if c == "1" else c for c in self.w])
        self.queries = 0

    def set_letter(self, i, c):
        _check_edit(i, c, len(self.w), self.LETTERS, "prefix-U2 letter")
        self.w[i] = c
        self.engine.update(i, "c" if c == "1" else c)

    def query(self, k):
        """Last non-neutral among the first k letters: '1', 'a', or 'b'."""
        _check_threshold(k, len(self.w))
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


class MembershipViaPrefix:
    """Membership in a language "exactly one x, and the letters before it
    evaluate into accept" through a prefix engine for monoid.

    image maps each letter to an element name of monoid; accept is a set of
    element names. Two instances are the paper's:
    - L_U1 = c*x(a+c)*: monoid U1, a -> 0, c and x -> 1, accept {1};
    - L_U2 = (a+b+c)*bc*x(a+b+c)*: monoid U2, a -> a, b -> b, c and x -> 1,
      accept {b}.
    """

    def __init__(self, monoid, image, accept, word):
        self.image = {c: monoid.id_of(name) for c, name in image.items()}
        self.accept = {monoid.id_of(name) for name in accept}
        self.w = _checked(word, self.image, "letter of the language")
        self.prefix_engine = make_prefix_engine(monoid, [self.image[c] for c in self.w])
        self.x_positions = {i for i, c in enumerate(self.w) if c == "x"}
        self.queries = 0

    def set_letter(self, i, c):
        _check_edit(i, c, len(self.w), self.image, "letter of the language")
        self.x_positions.discard(i)
        if c == "x":
            self.x_positions.add(i)
        self.w[i] = c
        self.prefix_engine.update(i, self.image[c])

    def query(self):
        """Is the maintained word in the language?"""
        self.queries += 1
        if len(self.x_positions) != 1:
            return False
        (pos,) = self.x_positions
        return self.prefix_engine.prefix(pos) in self.accept


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
        self.pad = pad = dfa.alphabet[0]
        marked = marked_infix_dfa(dfa, mark)
        self.morphism, self.stable_d, self.report = analyze_dfa(marked)
        padded = [pad] + list(word) + [pad]
        self.engine = make_language_engine(
            self.morphism, self.stable_d, self.report, padded
        )
        self.queries = 0

    def set_letter(self, i, c):
        _check_edit(i, c, self.n, self.base_dfa.alphabet, "letter of the alphabet")
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
        # the letters there: the word's own, or the pad past either end
        old_left = self.w[i - 1] if i else self.pad
        old_right = self.w[j + 1] if j + 1 < self.n else self.pad
        eng.update(left, self.mark)
        eng.update(right, self.mark)
        ans = eng.query()
        eng.update(left, old_left)
        eng.update(right, old_right)
        return ans

