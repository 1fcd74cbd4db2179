import pytest

from dynreg.algebra import (
    Congruence,
    adjoin_identity,
    adjoin_zero,
    build_semigroup,
    check_variety,
    direct_product,
    enumerate_congruences,
    find_violation,
    generated_subsemigroup,
    green_j,
    local_monoids,
    nilpotency_degree,
    omega,
    quotient,
)
from dynreg.errors import (
    AssociativityViolation,
    InternalError,
    RangeError,
    TooLarge,
    UnsupportedVariety,
)
from dynreg.gallery import a_squared_zero, ab_star_semigroup, cyclic, u1, u2, zg_monoid5


def test_build_u1():
    # the AND monoid on elements (1, 0): label table [[1,0],[0,0]]
    s = build_semigroup([[0, 1], [1, 1]], names=["1", "0"], identity_hint=0)
    assert s.identity == 0 and s.names[s.identity] == "1"
    assert s.zero == 1 and s.names[s.zero] == "0"


def test_build_trivial():
    s = build_semigroup([[0]])
    assert s.identity == 0 and s.zero == 0


def test_build_rejects_non_associative():
    with pytest.raises(AssociativityViolation):
        build_semigroup([[0, 1], [0, 0]])


def test_build_rejects_bad_entries():
    with pytest.raises(RangeError):
        build_semigroup([[0, 2], [1, 0]])
    with pytest.raises(RangeError):
        build_semigroup([[0, 1], [1]])
    # JSON true and false are no element ids, as they are no DFA states
    with pytest.raises(RangeError):
        build_semigroup([[0, 1], [True, 1]])


def test_omega_examples():
    m = u2()
    assert omega(m, m.id_of("a")) == (1, m.id_of("a"))
    z3 = cyclic(3)
    assert omega(z3, 1) == (3, 0)
    s = a_squared_zero()
    assert omega(s, s.id_of("a")) == (2, s.id_of("0"))


def test_check_variety_examples():
    assert check_variety(zg_monoid5(), "ZG")
    assert check_variety(u2(), "SG")  # aperiodic, hence SG
    assert not check_variety(u2(), "ZE")
    assert check_variety(ab_star_semigroup(), ("LOCAL", "ZG"))
    with pytest.raises(UnsupportedVariety):
        check_variety(u1(), "BOGUS")


def test_ze_violation_witness_is_concrete():
    m = u2()
    x, y = find_violation(m, "ZE")
    e = m.omega_data(x).element
    assert m.table[e][y] != m.table[y][e]


def test_green_j_ab_star():
    s = ab_star_semigroup()
    js = green_j(s)
    assert [set(c) for c in js.classes] == [{0}, {1}, {2}, {3}]
    assert js.maximal_classes == [0, 1]
    assert js.regular == [True, True, False, True]


def test_green_j_group_single_class():
    js = green_j(cyclic(2))
    assert len(js.classes) == 1 and js.regular == [True]
    js = green_j(build_semigroup([[0]]))
    assert len(js.classes) == 1


def test_local_monoids():
    s = ab_star_semigroup()
    locs = {s.names[e]: sorted(s.names[x] for x in incl) for e, _, incl in local_monoids(s)}
    assert locs["a"] == ["0", "a"]
    assert locs["b"] == ["0", "b"]
    assert locs["0"] == ["0"]
    m = zg_monoid5()
    at_identity = [loc for e, loc, _ in local_monoids(m) if e == m.identity]
    assert at_identity[0].size == m.size


def test_product_quotient_generated_adjoin():
    p = direct_product(u1(), u1())
    assert p.size == 4 and p.identity is not None and p.zero is not None
    assert check_variety(p, "COM")

    z4 = cyclic(4)
    parity = Congruence([[0, 2], [1, 3]])
    q = quotient(z4, parity)
    assert q.size == 2 and q.table == cyclic(2).table

    m = u2()
    sub, incl = generated_subsemigroup(m, {m.id_of("a")})
    assert incl == [m.id_of("a")] and sub.size == 1

    s = ab_star_semigroup()
    s0 = adjoin_zero(s)
    assert s0.size == s.size + 1 and s0.zero == s.size  # fresh zero by default
    assert adjoin_zero(s, reuse=True) is s
    m1 = adjoin_identity(s)
    assert m1.identity == s.size


def test_adjoin_identity_builds_s1_once_per_table_and_names():
    s = ab_star_semigroup()
    assert adjoin_identity(s) is adjoin_identity(ab_star_semigroup())
    renamed = build_semigroup(s.table, names=[f"x{i}" for i in range(s.size)])
    assert renamed == s and adjoin_identity(renamed) is not adjoin_identity(s)
    assert adjoin_identity(renamed).names == [*renamed.names, "1*"]
    assert adjoin_identity(s).names == [*s.names, "1*"]
    m1 = adjoin_identity(s)
    assert adjoin_identity(m1) is m1 and adjoin_identity(m1, reuse=False).size == m1.size + 1


def test_enumerate_congruences_counts():
    assert len(enumerate_congruences(build_semigroup([[0]]))) == 1
    assert len(enumerate_congruences(cyclic(2))) == 2
    assert len(enumerate_congruences(cyclic(4))) == 3
    with pytest.raises(TooLarge):
        enumerate_congruences(cyclic(13))


def test_congruence_validation():
    z4 = cyclic(4)
    from dynreg.algebra.congruence import validate_congruence
    from dynreg.errors import InvalidCongruence

    validate_congruence(z4, Congruence([[0, 2], [1, 3]]))
    with pytest.raises(InvalidCongruence):
        validate_congruence(z4, Congruence([[0, 1], [2, 3]]))


# -- gallery-wide algebraic identities --------------------------------------


def test_zg_equals_sg_meet_ze(gal):
    for name, s in gal.items():
        lhs = check_variety(s, "ZG")
        rhs = check_variety(s, "SG") and check_variety(s, "ZE")
        assert lhs == rhs, name


def test_local_sg_equals_sg(gal):
    for name, s in gal.items():
        assert check_variety(s, "SG") == check_variety(s, ("LOCAL", "SG")), name


def test_maximal_class_absorption(gal):
    for name, s in gal.items():
        js = green_j(s)
        for cid in js.maximal_classes:
            cls = set(js.classes[cid])
            for x in range(s.size):
                for y in range(s.size):
                    if s.table[x][y] in cls:
                        assert x in cls and y in cls, (name, x, y)


def test_nonregular_maximal_pair_collapse(gal):
    for name, s in gal.items():
        js = green_j(s)
        for cid in js.maximal_classes:
            if js.regular[cid]:
                continue
            cls = set(js.classes[cid])
            for x in cls:
                for y in cls:
                    assert s.table[x][y] not in cls, (name, x, y)


def test_json_round_trips():
    from dynreg.jsonio import (
        congruence_from_json,
        semigroup_from_json,
        semigroup_to_json,
    )

    s = ab_star_semigroup()
    s2 = semigroup_from_json(semigroup_to_json(s))
    assert s2.table == s.table and s2.names == s.names
    c = congruence_from_json({"blocks": [[0, 2], [1, 3]]})
    assert c.block_of[2] == 0
    for obj in ({}, [[0, 2], [1, 3]]):
        with pytest.raises(RangeError, match="congruence JSON needs the field 'blocks'"):
            congruence_from_json(obj)


def test_associativity_holds_for_every_gallery_table(gal):
    for name, s in gal.items():
        t = s.table
        n = s.size
        for x in range(n):
            for y in range(n):
                xy = t[x][y]
                for z in range(n):
                    assert t[xy][z] == t[x][t[y][z]], (name, x, y, z)


def test_nilpotency_degree_without_zero_raises_internal_error():
    # a raise, not an assert, so the check also holds under python -O
    assert nilpotency_degree(build_semigroup([[1, 1], [1, 1]])) == 2
    with pytest.raises(InternalError, match="without zero"):
        nilpotency_degree(cyclic(3))
