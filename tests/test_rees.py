import random

import pytest

from helpers import rees_product

from dynreg.algebra import ZERO, check_variety, green_j, rees_decompose
from dynreg.errors import NotMaximal, NotRegular
from dynreg.gallery import ab_star_semigroup, cyclic


def test_rees_on_group():
    z2 = cyclic(2)
    r = rees_decompose(z2, 0)
    assert (r.i_count, r.j_count, r.group.size) == (1, 1, 2)
    assert r.matrix == [[r.g_identity]]


def test_rees_on_singleton_idempotent_class():
    s = ab_star_semigroup()
    js = green_j(s)
    r = rees_decompose(s, 0, js)
    assert (r.i_count, r.j_count, r.group.size) == (1, 1, 1)
    assert r.matrix == [[r.group.identity]]


def test_rees_errors():
    s = ab_star_semigroup()
    js = green_j(s)
    cid_ab = js.class_of[s.id_of("ab")]
    with pytest.raises(NotRegular):
        rees_decompose(s, cid_ab, js)
    cid_zero = js.class_of[s.id_of("0")]
    with pytest.raises(NotMaximal):
        rees_decompose(s, cid_zero, js)


def _reconstruction_exact(s, cid, js):
    """Rees invariant: products in C iff sandwich nonzero, with exact values."""
    r = rees_decompose(s, cid, js, require_maximal=False)
    cls = set(js.classes[cid])
    for a in cls:
        for b in cls:
            prod = s.table[a][b]
            via = rees_product(r, a, b)
            if prod in cls:
                assert via == prod, (a, b)
            else:
                assert via is None, (a, b)
    # coordinates are a bijection realized by the representatives
    assert len(r.coord) == len(cls) == len(r.uncoord)


def test_rees_reconstruction_all_regular_classes(gal):
    for name, s in gal.items():
        js = green_j(s)
        for cid in range(len(js.classes)):
            if js.regular[cid]:
                _reconstruction_exact(s, cid, js)


def test_structuring_group_commutative_on_sg_gallery(gal):
    for name, s in gal.items():
        if not check_variety(s, "SG"):
            continue
        js = green_j(s)
        for cid in range(len(js.classes)):
            if not js.regular[cid]:
                continue
            r = rees_decompose(s, cid, js, require_maximal=False)
            assert check_variety(r.group, "COM"), (name, cid)


def test_swap_identity_random_instances(gal):
    """eval(r (i,gg',j) s (i',1,j') t) == eval(r (i,g,j) s (i',g',j') t)."""
    rng = random.Random(99)
    checked = 0
    for name, s in gal.items():
        if not check_variety(s, "SG"):
            continue
        js = green_j(s)
        for cid in js.maximal_classes:
            if not js.regular[cid]:
                continue
            r = rees_decompose(s, cid, js)
            cls = list(js.classes[cid])
            for _ in range(0, 1000, max(1, 1000 // 125)):
                u = rng.choice(cls)
                v = rng.choice(cls)
                i, g, j = r.coord[u]
                i2, g2, j2 = r.coord[v]
                mid = [rng.randrange(s.size) for _ in range(rng.randrange(0, 3))]
                pre = [rng.randrange(s.size) for _ in range(rng.randrange(0, 3))]
                post = [rng.randrange(s.size) for _ in range(rng.randrange(0, 3))]
                moved = r.uncoord[(i, r.g_mul(g, g2), j)]
                neut = r.uncoord[(i2, r.g_identity, j2)]
                w1 = pre + [u] + mid + [v] + post
                w2 = pre + [moved] + mid + [neut] + post
                assert s.eval_word(w1) == s.eval_word(w2), (name, w1, w2)
                checked += 1
    assert checked >= 1000
