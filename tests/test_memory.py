import random
import tracemalloc

import pytest

from helpers import FIRST_LETTER_DFA, clear_route_memos

from dynreg.engines import make_language_engine
from dynreg.engines.kary import make_kary_engine
from dynreg.engines.sg import make_sg_engine
from dynreg.gallery import s3
from dynreg.syntactic import analyze_dfa, analyze_regex

N = 2**16


def _built(factory, *args):
    """The engine factory(*args) builds, and the bytes it holds per letter."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine = factory(*args)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return engine, held / N


def test_sg_engine_holds_a_few_bytes_per_letter():
    # the stable semigroup of the edit-sg benchmark language; nine span-N
    # VebMaps hold one label byte per key each, and a bucket count byte per
    # bucket of 4 keys
    stable = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")[1].stable
    rng = random.Random(16)
    word = [rng.randrange(stable.size) for _ in range(N)]
    engine, per_letter = _built(make_sg_engine, stable, word)
    assert engine.n == N and per_letter <= 48, f"{per_letter:.1f} B per letter"


def test_sg_build_peak_stays_bounded():
    # the build holds the word as narrow numpy arrays, builds each layer's
    # maps in turn and keeps only the word being built on the way down; the
    # maps insert their keys one at a time, and the run layers collapse their
    # word in one pass, both reading the arrays' buffers one int at a time
    # (a peak of 37.5 B per letter, 81.7 when the collapse read lists of
    # the keys and letters). A full-length list of ints would cross the budget
    stable = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")[1].stable
    rng = random.Random(16)
    word = [rng.randrange(stable.size) for _ in range(N)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine = make_sg_engine(stable, word)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert engine.n == N and peak / N <= 72, f"build peak {peak / N:.1f} B per letter"


@pytest.mark.parametrize("rx, alphabet, kind, budget", [
    ("a*b*", "ab", "language[window]", 3),
    ("(ab)*", "ab", "language[zg]", 3),
    ("(a+b+c)*bc*x(a+b+c)*", "abcx", "language[kary]", 3),
    ("(b+ab*a)*b", "ab", "language[kary-downgraded]", 3),
])
def test_language_facade_holds_a_few_bytes_per_letter(rx, alphabet, kind, budget):
    # a chunked engine keeps one code per block of 12 letters (block_length
    # rounded down to a multiple of the stability index 2), and the zg
    # kind's inner engine one list slot per block (0.9 and 1.4 B per
    # letter, the code table included); the k-ary kind keeps one code per
    # block of 6 or 13 letters,
    # its code table and the levels over the blocks (2.3 and 1.9 B per
    # letter, the memoized value table and the shared code objects
    # included). One more per-letter store would cross the budget. A
    # downgraded Q_LZG language is the k-ary kind too
    m, sd, rep = analyze_regex(rx, alphabet)
    rng = random.Random(16)
    word = [rng.choice(alphabet) for _ in range(N)]
    engine, per_letter = _built(make_language_engine, m, sd, rep, word)
    assert engine.kind == kind
    assert per_letter <= budget, f"{kind}: {per_letter:.1f} B per letter"


def test_kary_language_build_peak_stays_near_its_held_bytes():
    # the build maps the letters to alphabet indices in one bytes.translate,
    # packs one code per block in a narrow dtype and builds the levels over
    # the blocks' values; it makes no list of the letters and no full-length
    # int64 copy (a letter list and such copies peaked near 27 B per letter,
    # a letter list alone near 18.6, against 3.5 now)
    m, sd, rep = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")
    rng = random.Random(16)
    word = [rng.choice("abcx") for _ in range(N)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine = make_language_engine(m, sd, rep, word)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert engine.kind == "language[kary]"
    assert peak / N <= 5, f"build peak {peak / N:.1f} B per letter"


def test_window_language_build_peak_stays_near_its_held_bytes():
    # the build maps the letters to alphabet indices in one bytes.translate
    # and packs one code per block in a narrow dtype; it makes no list of
    # the letters and no inner engine (those peaked near 16 B per letter
    # against 2.9 now)
    m, sd, rep = analyze_regex("a*b*", "ab")
    rng = random.Random(16)
    word = [rng.choice("ab") for _ in range(N)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine = make_language_engine(m, sd, rep, word)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert engine.kind == "language[window]"
    assert peak / N <= 6, f"build peak {peak / N:.1f} B per letter"


@pytest.mark.parametrize("analyze, alphabet, budget", [
    # the first-letter DFA of perfbench's corpus: 3.1 B per letter, 5.0
    # when the search kept the 2,020 states that show the zero
    pytest.param(lambda: analyze_dfa(FIRST_LETTER_DFA), "ab", 4, id="first letter"),
    # LJ1: 4.6 B per letter, 1,571 when its unpruned searches ran to the
    # state cap and failed
    pytest.param(lambda: analyze_regex("((abc)(abc))*((acb)(acb))*", "abc"), "abc", 6, id="LJ1"),
])
def test_first_window_build_peak_includes_the_plan_search(analyze, alphabet, budget):
    # with the route memos cleared, the build runs the zg certificate and
    # window plan searches, and its peak includes theirs. The failed
    # search of (b+ab*a)*b is not here: it peaks at about 22 MB, 335 B per
    # letter, and takes about 20 s under tracemalloc
    m, sd, rep = analyze()
    rng = random.Random(16)
    word = [rng.choice(alphabet) for _ in range(N)]
    clear_route_memos()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine = make_language_engine(m, sd, rep, word)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert engine.kind == "language[window]"
    assert peak / N <= budget, f"first build peak {peak / N:.1f} B per letter"


def test_kary_memory_stays_flat_under_edits():
    s = s3()
    rng = random.Random(17)
    word = [rng.randrange(s.size) for _ in range(N)]
    edits = [(rng.randrange(N), rng.randrange(s.size)) for _ in range(20_000)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine = make_kary_engine(s, word)
        built = tracemalloc.get_traced_memory()[0] - start
        for pos, letter in edits:
            engine.update(pos, letter)
        edited = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert edited <= built + N, f"built {built / N:.2f}, edited {edited / N:.2f} B per letter"
