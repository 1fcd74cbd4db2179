import random
import tracemalloc

from dynreg.engines.kary import make_kary_engine
from dynreg.engines.sg import make_sg_engine
from dynreg.gallery import s3
from dynreg.syntactic import analyze_regex

N = 2**16


def test_sg_engine_holds_a_few_bytes_per_letter():
    # the stable semigroup of the edit-sg benchmark language; nine span-N
    # VebMaps hold one label byte per key each
    stable = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")[1].stable
    rng = random.Random(16)
    word = [rng.randrange(stable.size) for _ in range(N)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine = make_sg_engine(stable, word)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert engine.n == N and held / N <= 64, f"{held / N:.1f} B per letter"


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
