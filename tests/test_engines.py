import random
import zlib

import numpy as np
import pytest

from helpers import FoldOracle, run_differential

from dynreg.algebra.core import adjoin_identity, direct_product
from dynreg.algebra.varieties import check_variety
from dynreg.engines import (
    DivisionEngine,
    ProductEngine,
    build_first,
    eligible_engines,
    make_auto_engine,
    make_count_engine,
    make_kary_engine,
    make_naive_engine,
    make_nilpotent_engine,
    make_prefix_engine,
    make_sg_engine,
    make_windowstats_engine,
    make_zg_engine,
)
from dynreg.engines.kary import branching
from dynreg.engines.language import LZG_LADDER
from dynreg.errors import (
    NoZgCertificate,
    NotCommutative,
    NotNilPlusOne,
    NotZg,
    PositionOutOfRange,
    RangeError,
    TupleArity,
)
from dynreg.gallery import ab_star_semigroup, cyclic, u1, u2, zg_monoid5
from dynreg.veb import VebMap


def test_naive_engine_basics():
    z2 = cyclic(2)
    e = make_naive_engine(z2, [1, 0, 1])
    assert e.query() == 0
    e = make_naive_engine(z2, [])
    assert e.query() is None
    m = u1()
    e = make_naive_engine(m, [m.id_of(c) for c in "1101"])
    assert e.query() == m.id_of("0")
    with pytest.raises(PositionOutOfRange):
        e.update(9, 0)


def test_array_words_are_checked_like_lists():
    # an ndarray word is range-checked with one min and max, a list letter
    # by letter; both build the same engine or raise the same RangeError
    cases = [(f, cyclic(3)) for f in (make_naive_engine, make_kary_engine,
                                      make_count_engine, make_zg_engine, make_sg_engine)]
    cases.append((make_windowstats_engine, ab_star_semigroup()))
    for make, s in cases:
        for word in ([0, 2, 1, 1], [], [0, 5, 1, 7], [0, -1, 2], [s.size]):
            arr = np.array(word, dtype=np.int64)
            if all(0 <= a < s.size for a in word):
                eng, twin = make(s, word), make(s, arr)
                assert twin.word == eng.word and type(twin.word) is list
                assert all(type(a) is int for a in twin.word)
                assert twin.query() == eng.query()
                continue
            with pytest.raises(RangeError) as from_list:
                make(s, word)
            with pytest.raises(RangeError) as from_array:
                make(s, arr)
            assert str(from_array.value) == str(from_list.value), (make, word)


# -- kary ----------------------------------------------------------------------


def test_kary_parity_and_prefix():
    z2 = cyclic(2)
    e = make_kary_engine(z2, [1] * 16)
    assert e.query() == 0
    assert e.prefix(7) == 1
    assert e.prefix(0) == e.semigroup.identity
    e.update(0, 0)
    assert e.query() == 1


def test_kary_infix_singleton():
    z3 = cyclic(3)
    word = [2, 1, 0, 2, 1]
    e = make_kary_engine(z3, word)
    for i in range(5):
        assert e.infix(i, i) == word[i]


def test_kary_differential_s3():
    from dynreg.gallery import s3

    rng = random.Random(17)
    assert run_differential(s3(), make_kary_engine, 256, 1000, rng) == 0


def test_kary_infix_consistency():
    from dynreg.gallery import s3

    s = s3()
    rng = random.Random(5)
    n = 100
    word = [rng.randrange(6) for _ in range(n)]
    e = make_kary_engine(s, word)
    assert e.infix(0, n - 1) == e.query()
    for _ in range(200):
        i = rng.randrange(n)
        l = rng.randrange(i, n)
        j = rng.randrange(i, l + 1) if l > i else i
        if j < l:
            left = e.infix(i, j)
            right = e.infix(j + 1, l)
            assert s.table[left][right] == e.infix(i, l)
        e.update(rng.randrange(n), rng.randrange(6))


def _height(k, n):
    """Levels of the flat k-ary tree: ceil(log_k n), and 1 for n = 1."""
    h, span = 1, k
    while span < n:
        h, span = h + 1, span * k
    return h


@pytest.mark.parametrize("name", ["S3", "abstar"])
@pytest.mark.parametrize("forced_k", [None, 2, 3, 5])
def test_kary_levels_match_naive(gal, name, forced_k):
    s = adjoin_identity(gal[name])
    rng = random.Random(zlib.crc32(f"{name}:{forced_k}".encode()))
    # the automatic k grows with n (S3: 2 at n = 1000, 3 at n = 4097)
    sizes = {1, 2, 3, 255, 257, 1000, 4097}
    if forced_k:
        sizes |= {forced_k, forced_k + 1}
    for n in sorted(sizes):
        k = forced_k or branching(s.size, n)
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = make_kary_engine(s, list(word), k=forced_k)
        ora = make_naive_engine(s, list(word))
        assert eng.k == k
        height = _height(k, n)
        for _ in range(150):
            p, a = rng.randrange(n), rng.randrange(s.size)
            before = eng.op_count
            eng.update(p, a)
            assert eng.op_count - before <= height
            ora.update(p, a)
            assert eng.query() == ora.query()
            i = rng.randrange(n)
            j = rng.randrange(i, n)
            assert eng.infix(i, j) == ora.infix(i, j), (n, i, j)
        acc = s.identity
        assert eng.prefix(0) == acc
        for length, letter in enumerate(ora.word, 1):
            acc = s.table[acc][letter]
            assert eng.prefix(length) == acc, (n, length)


def test_kary_rejects_a_branching_factor_below_2(gal):
    # a one-digit node never narrows its level, so the build would not end
    for k in (0, 1):
        with pytest.raises(RangeError):
            make_kary_engine(gal["S3"], [0, 1, 2], k=k)


def test_kary_rejects_a_forced_branching_factor_whose_tables_are_too_large(gal):
    # S3 at k = 6 needs 6^6 * 36 = 1,679,616 cells, over max(n, 2^20)
    with pytest.raises(RangeError, match="branching factor 6 over 6 elements needs 1679616"):
        make_kary_engine(gal["S3"], [0, 1, 2], k=6)
    for name in ("S3", "abstar"):
        for k in (2, 3, 5):  # at most 6^5 * 25 = 194,400 cells
            eng = make_kary_engine(gal[name], [0, 1, 2], k=k)
            assert eng.k == k and len(eng.inf) <= 194_400


@pytest.mark.parametrize("msize", [1, 2, 3, 6, 7, 40])
@pytest.mark.parametrize("n", [1, 2, 4, 256, 4097, 2**20])
def test_branching_is_the_largest_k_within_a_linear_table_budget(msize, n):
    def fits(k):
        return msize**k * k * k <= n and k < n.bit_length()

    k = branching(msize, n)
    assert k >= 2
    assert k == 2 or fits(k)
    assert not fits(k + 1)


def test_branching_on_s3_and_the_trivial_monoid(gal):
    assert [branching(6, 2**e) for e in (10, 14, 18, 20)] == [2, 3, 5, 5]
    trivial = make_kary_engine(cyclic(1), [0] * 2**20)
    assert trivial.k == 20 and len(trivial.levels) == 5


def test_kary_levels_share_one_object_per_code(gal):
    # k = 3 codes stay below 257, CPython's cached small ints; k = 5 codes do not
    s = gal["S3"]
    rng = random.Random(zlib.crc32(b"kary-shared-codes"))
    word = [rng.randrange(s.size) for _ in range(2**14)]
    for forced_k, k in ((None, 3), (5, 5)):
        eng = make_kary_engine(s, word, k=forced_k)
        assert eng.k == k
        for codes in eng.levels:
            assert len({id(c) for c in codes}) == len(set(codes)) <= s.size**k


# -- count ----------------------------------------------------------------------


def test_count_examples():
    z3 = cyclic(3)
    e = make_count_engine(z3, [1, 1, 1])
    assert e.query() == 0
    m = u1()
    e = make_count_engine(m, [m.identity] * 4)
    assert e.query() == m.identity
    e.update(2, m.zero)
    assert e.query() == m.zero
    with pytest.raises(NotCommutative):
        make_count_engine(u2(), [0])


def test_count_differential():
    rng = random.Random(3)
    from dynreg.gallery import gallery

    g = gallery()
    assert run_differential(g["U1xZ3"], make_count_engine, 200, 2000, rng) == 0


def test_count_engine_keeps_powers_up_to_the_first_repeat(gal):
    # x^c for c past the stored row is read off the cycle of powers
    n = 4097
    for name, s in sorted(gal.items()):
        if not check_variety(s, "COM"):
            continue
        rng = random.Random(zlib.crc32(f"count-powers:{name}".encode()))
        for x in range(s.size):
            e = make_count_engine(s, [x] * n)
            assert sum(len(row) for row in e.powers) <= s.size * (s.size + 2), name
            assert e.query() == make_naive_engine(s, [x] * n).query(), (name, x)
        word = [rng.randrange(s.size) for _ in range(n)]
        e = make_count_engine(s, list(word))
        naive = make_naive_engine(s, list(word))
        for _ in range(200):
            p, a = rng.randrange(n), rng.randrange(s.size)
            e.update(p, a)
            naive.update(p, a)
            assert e.query() == naive.query(), name


# -- nilpotent --------------------------------------------------------------------


def test_nilpotent_examples():
    m = zg_monoid5()
    ids = {n: m.id_of(n) for n in m.names}
    e = make_nilpotent_engine(m, [ids["a"], ids["1"], ids["b"], ids["1"]])
    assert e.query() == ids["ab"]
    e.update(0, ids["1"])
    assert e.query() == ids["b"]
    e2 = make_nilpotent_engine(m, [ids["a"], ids["b"], ids["a"], ids["1"]])
    assert e2.query() == ids["0"]
    e3 = make_nilpotent_engine(m, [ids["1"]] * 5)
    assert e3.query() == ids["1"]
    with pytest.raises(NotNilPlusOne):
        make_nilpotent_engine(u2(), [0])


def test_nilpotent_differential(gal):
    rng = random.Random(4)
    assert run_differential(gal["nilnc"], make_nilpotent_engine, 128, 2000, rng) == 0


# -- product / division -------------------------------------------------------------


def test_product_engine_componentwise():
    z2 = cyclic(2)
    words = ([1, 0, 1], [0, 1, 1])
    prod = ProductEngine([make_naive_engine(z2, list(w)) for w in words])
    assert prod.query() == (0, 0)
    prod.update(0, (0, 1))
    assert prod.query() == (1, 1)
    with pytest.raises(TupleArity):
        prod.update(0, (1,))


def test_division_mod2_from_z4():
    z4, z2 = cyclic(4), cyclic(2)
    word = [1, 2, 3]
    inner = make_naive_engine(z4, list(word))
    div = DivisionEngine(
        rep=list(range(4)), project={v: v % 2 for v in range(4)}, inner=inner
    )
    assert div.query() == sum(word) % 2
    div.update(1, 1)
    assert div.query() == (1 + 1 + 3) % 2


# -- zg -----------------------------------------------------------------------------


def test_zg_engine_example_updates():
    m = zg_monoid5()
    ids = {n: m.id_of(n) for n in m.names}
    e = make_zg_engine(m, [ids["a"], ids["1"], ids["1"], ids["b"]])
    assert e.query() == ids["ab"]
    e.update(3, ids["a"])
    assert e.query() == ids["0"]


def test_zg_engine_commutative_reduces_to_count():
    e = make_zg_engine(cyclic(6), [0, 1, 2])
    assert e.kind == "count"


def test_zg_engine_rejects_non_zg():
    with pytest.raises(NotZg):
        make_zg_engine(u2(), [0])


def test_zg_division_differential(gal):
    rng = random.Random(6)
    assert run_differential(gal["Z2xzg5"], make_zg_engine, 300, 2500, rng) == 0


def test_zg_constant_update_cost_across_sizes(gal):
    worst = []
    for n in (2**10, 2**14, 2**18):
        rng = random.Random(8)
        s = gal["Z2xzg5"]
        word = [rng.randrange(s.size) for _ in range(n)]
        e = make_zg_engine(s, word)
        mx = 0
        for _ in range(2000):
            before = e.op_count
            e.update(rng.randrange(n), rng.randrange(s.size))
            mx = max(mx, e.op_count - before)
        worst.append(mx)
    assert worst[0] == worst[1] == worst[2], worst


def test_zg_engine_downgrades_above_the_congruence_search_bound(gal):
    # zg5 x Z3 is in ZG but not commutative; with 15 elements it is above
    # the congruence search's bound, so no certificate is found: the zg
    # factory raises, and both auto and the facade's Q_LZG ladder (which
    # tries window first) fall back to the vEB engine, whose answers stay
    # exact
    s = direct_product(gal["zg5"], gal["Z3"])
    assert s.size == 15
    assert check_variety(s, "ZG") and not check_variety(s, "COM")
    with pytest.raises(NoZgCertificate):
        make_zg_engine(s, [0])
    assert make_auto_engine(s, [0]).kind == "sg-downgraded"
    assert build_first(LZG_LADDER, s, [0])[0] == "sg-downgraded"
    rng = random.Random(15)
    for factory in (make_auto_engine, lambda s, w: build_first(LZG_LADDER, s, w)[1]):
        for n in (1, 2, 9, 60):
            assert run_differential(
                s, factory, n, 300, rng, oracle_cls=make_naive_engine
            ) == 0


# -- prefix -----------------------------------------------------------------------


def test_prefix_u1():
    m = u1()
    word = [m.id_of(c) for c in "101"]
    e = make_prefix_engine(m, word)
    assert e.kind == "veb-prefix"
    assert e.prefix(1) == m.id_of("1")
    assert e.prefix(2) == m.id_of("0")


def test_prefix_u2():
    m = u2()
    word = [m.id_of("a"), m.identity, m.id_of("b")]
    e = make_prefix_engine(m, word)
    assert e.prefix(2) == m.id_of("a")
    assert e.prefix(3) == m.id_of("b")


def test_prefix_z2_routes_to_kary_and_matches_naive():
    z2 = cyclic(2)
    rng = random.Random(9)
    for n in (1, 5, 17, 64):
        word = [rng.randrange(2) for _ in range(n)]
        e = make_prefix_engine(z2, list(word))
        assert e.kind == "kary"
        naive = make_naive_engine(z2, list(word))
        for length in range(n + 1):
            assert e.prefix(length) == naive.prefix(length)


def test_prefix_differential_u1_u2():
    rng = random.Random(10)
    for m in (u1(), u2()):
        n = 64
        word = [rng.randrange(m.size) for _ in range(n)]
        e = make_prefix_engine(m, list(word))
        naive = make_naive_engine(m, list(word))
        for _ in range(1500):
            p, a = rng.randrange(n), rng.randrange(m.size)
            e.update(p, a)
            naive.update(p, a)
            length = rng.randrange(n + 1)
            assert e.prefix(length) == naive.prefix(length)


def test_prefix_engine_builds_its_map_in_bulk():
    # the build charges writes but no probes, and holds what inserting the
    # non-identity letters one at a time holds
    rng = random.Random(zlib.crc32(b"veb prefix bulk build"))
    for m in (u1(), u2()):
        for n in (0, 1, 64, 65, 1000):
            word = [rng.randrange(m.size) for _ in range(n)]
            e = make_prefix_engine(m, list(word))
            assert e.kind == "veb-prefix" and e.op_count == 0, (m, n)
            one_by_one = VebMap(max(n, 1))
            for i, a in enumerate(word):
                if a != m.identity:
                    one_by_one.insert(i + 1, a)
            assert e.map.items() == one_by_one.items(), (m, n)


# -- cross-engine oracle equivalence (scaled-down; acceptance runs the full set) --


def test_all_eligible_engines_small_differential(gal):
    rng = random.Random(12)
    for name, s in gal.items():
        for kind, factory in eligible_engines(s):
            mism = run_differential(s, factory, 33, 400, rng)
            assert mism == 0, (name, kind)
