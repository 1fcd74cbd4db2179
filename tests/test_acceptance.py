"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Tolerances and op budgets are pinned here:
  1. oracle equivalence: 10^4 seeded ops per (semigroup, engine), split evenly
     over word lengths {17, 64, 1000, 4096}; exhaustive |w| <= 5 for gallery
     semigroups of size <= 5; total wall time under 120 s.
  2. exact categorical classifications for the named languages.
  3. constant-engine max update cost identical (+-0) across n in
     {2^10, 2^14, 2^18}; sg within 2c log2 log2 n and kary within
     2c' log2 n / log2 log2 n, both fitted at n = 2^10; each cell < 60 s.
  4. vEB differential over 10^5 ops at spans {2^8, 2^12, 2^16}; linear build
     writes and per-op probe bound fitted at the smallest span (factor 2).
  5. exact algebraic identities over the gallery.
  6. gadget round trips: exhaustive <= 5 and 64 seeded words at n = 64,
     probe-restore state identity after every query.
  7. the worked update trace for a*b* through the CLI.
"""

import itertools
import json
import math
import random
import re
import subprocess
import sys
import time
import zlib

import pytest

from helpers import FoldOracle, membership_l_u1, membership_l_u2, rees_product

from dynreg.algebra import check_variety, find_violation, green_j, rees_decompose
from dynreg.engines import (
    SemidirectSpec,
    eligible_engines,
    make_auto_engine,
    make_kary_engine,
    make_language_engine,
    make_naive_engine,
    make_semidirect_engine,
    make_sg_engine,
    make_zg_engine,
)
from dynreg.engines.counting import CountEngine, NilpotentEngine
from dynreg.gadgets import InfixAdapter, PrefixU1ViaMonoid, PrefixU2ViaLanguage
from dynreg.gallery import u2
from dynreg.syntactic import (
    OUTSIDE_Q_SG,
    Q_LZG,
    Q_SG_ONLY,
    analyze_regex,
    classify_language,
    minimize_dfa,
    stable_data,
    syntactic_monoid,
)
from dynreg.syntactic.dfa import Dfa
from dynreg.veb import VebMap

SEED = 0xD1CE


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- criterion 1: oracle equivalence -----------------------------------------


def _random_clause(gal):
    mismatches = 0
    cells = 0
    for name, s in sorted(gal.items()):
        for kind, factory in eligible_engines(s):
            for n in (17, 64, 1000, 4096):
                rng = random.Random(zlib.crc32(f"{SEED}:{name}:{kind}:{n}".encode()))
                word = [rng.randrange(s.size) for _ in range(n)]
                eng = factory(s, list(word))
                oracle = FoldOracle(s, list(word))
                for _ in range(2500):
                    p, a = rng.randrange(n), rng.randrange(s.size)
                    eng.update(p, a)
                    oracle.update(p, a)
                    if eng.query() != oracle.query():
                        mismatches += 1
                cells += 1
    return mismatches, cells


def _exhaustive_clause(gal):
    mismatches = 0
    for name, s in sorted(gal.items()):
        if s.size > 5:
            continue
        engines = eligible_engines(s)
        t = s.table
        for n in range(1, 6):
            for word in itertools.product(range(s.size), repeat=n):
                prefix = [None] * (n + 1)
                acc = None
                for i, a in enumerate(word):
                    acc = a if acc is None else t[acc][a]
                    prefix[i + 1] = acc
                suffix = [None] * (n + 1)
                acc = None
                for i in range(n - 1, -1, -1):
                    acc = word[i] if acc is None else t[word[i]][acc]
                    suffix[i] = acc
                engs = [factory(s, list(word)) for _, factory in engines]
                for eng in engs:
                    if eng.query() != prefix[n]:
                        mismatches += 1
                for pos in range(n):
                    old = word[pos]
                    for a in range(s.size):
                        want = a
                        if pos > 0:
                            want = t[prefix[pos]][want]
                        if pos < n - 1:
                            want = t[want][suffix[pos + 1]]
                        for eng in engs:
                            eng.update(pos, a)
                            if eng.query() != want:
                                mismatches += 1
                    for eng in engs:
                        eng.update(pos, old)
    return mismatches


def test_criterion_1_oracle_equivalence(gal):
    t0 = time.perf_counter()
    mism_r, cells = _random_clause(gal)
    mism_e = _exhaustive_clause(gal)
    wall = time.perf_counter() - t0
    ok = mism_r == 0 and mism_e == 0 and wall < 120.0
    _report(
        1,
        ok,
        f"random mismatches={mism_r} over {cells} cells, "
        f"exhaustive mismatches={mism_e}, wall={wall:.1f}s",
    )


# -- criterion 2: classification ----------------------------------------------


def _s3_language_pipeline():
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    gens = ((1, 0, 2), (1, 2, 0))
    delta = [
        [idx[tuple(g[p[k]] for k in range(3))] for g in gens] for p in perms
    ]
    d = minimize_dfa(Dfa("ab", delta, idx[(0, 1, 2)], {idx[(0, 1, 2)]}))
    m = syntactic_monoid(d)
    sd = stable_data(m)
    return m, sd, classify_language(m, sd)


def test_criterion_2_classification():
    checks = []
    m, sd, rep = analyze_regex("a*b*", "ab")
    checks.append(("a*b*", rep.cls == Q_LZG))

    m, sd, rep = analyze_regex("(aa)*ba*", "ab")
    checks.append(("(aa)*ba* class", rep.cls == Q_LZG))
    checks.append(("(aa)*ba* monoid not SG", not check_variety(m.target, "SG")))

    m, sd, rep = analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx")
    checks.append(("L_U2", rep.cls == Q_SG_ONLY))

    m, sd, rep = analyze_regex("c*x(a+c)*", "acx")
    checks.append(("L_U1", rep.cls == Q_SG_ONLY))

    m, sd, rep = _s3_language_pipeline()
    checks.append(("S3 language", rep.cls == OUTSIDE_Q_SG))

    m, sd, rep = analyze_regex("((abc)(abc))*((acb)(acb))*", "abc")
    M = m.target
    checks.append(("double-cycle monoid in SG", check_variety(M, "SG")))
    u = m.image("abc")
    v = m.image("acb")
    lhs = M.table[M.omega_data(u).plus_one][M.omega_data(v).element]
    rhs = M.table[M.omega_data(u).element][M.omega_data(v).plus_one]
    checks.append(("ComVA instance fails", lhs != rhs))

    bad = [c for c, ok in checks if not ok]
    _report(2, not bad, f"failed: {bad}" if bad else f"{len(checks)} facts exact")


# -- criterion 3: complexity counters -------------------------------------------


def _max_update_cost(build, letters, n, ops=1200, seed=SEED):
    rng = random.Random(seed)
    eng = build(n, rng)
    mx_u = 0
    mx_q = 0
    for _ in range(ops):
        before = eng.op_count
        eng.update(rng.randrange(n), letters(rng))
        mx_u = max(mx_u, eng.op_count - before)
        before = eng.op_count
        eng.query()
        mx_q = max(mx_q, eng.op_count - before)
    return mx_u, mx_q


def test_criterion_3_complexity_counters(gal):
    sizes = (2**10, 2**14, 2**18)
    failures = []
    t0 = time.perf_counter()

    def constant_cell(label, factory, s):
        worst = []
        for n in sizes:
            cell0 = time.perf_counter()
            worst.append(
                _max_update_cost(
                    lambda n_, rng: factory(s, [rng.randrange(s.size) for _ in range(n_)]),
                    lambda rng: rng.randrange(s.size),
                    n,
                )
            )
            if time.perf_counter() - cell0 >= 60:
                failures.append(f"{label} cell at n={n} exceeded 60s")
        if not (worst[0] == worst[1] == worst[2]):
            failures.append(f"{label} costs vary: {worst}")

    constant_cell("zg", make_zg_engine, gal["Z2xzg5"])
    constant_cell("count", CountEngine, gal["Z6"])
    constant_cell("nilpotent", NilpotentEngine, gal["zg5"])
    # auto on a LOCAL ZG semigroup outside ZG: the window engine, as its language gets
    constant_cell("auto abstar", make_auto_engine, gal["abstar"])

    from test_semidirect import translation_action_spec

    spec = translation_action_spec()
    prod = spec.product_semigroup()
    worst = []
    for n in sizes:
        worst.append(
            _max_update_cost(
                lambda n_, rng: make_semidirect_engine(
                    spec, [rng.randrange(prod.size) for _ in range(n_)]
                ),
                lambda rng: rng.randrange(prod.size),
                n,
            )
        )
    if not (worst[0] == worst[1] == worst[2]):
        failures.append(f"semidirect costs vary: {worst}")

    for rx in ("a*b*", "(aa)*ba*"):
        m, sd, rep = analyze_regex(rx, "ab")
        worst = []
        for n in sizes:
            worst.append(
                _max_update_cost(
                    lambda n_, rng: make_language_engine(
                        m, sd, rep, [rng.choice("ab") for _ in range(n_)]
                    ),
                    lambda rng: rng.choice("ab"),
                    n,
                )
            )
        if not (worst[0] == worst[1] == worst[2]):
            failures.append(f"language {rx} costs vary: {worst}")

    # sg: within 2c log2 log2 n, c fitted at the smallest size
    s = gal["abstar"]
    fitted = None
    for n in sizes:
        mx_u, mx_q = _max_update_cost(
            lambda n_, rng: make_sg_engine(s, [rng.randrange(s.size) for _ in range(n_)]),
            lambda rng: rng.randrange(s.size),
            n,
        )
        mx = max(mx_u, mx_q)
        term = math.log2(math.log2(n))
        if fitted is None:
            fitted = mx / term
        elif mx > 2 * fitted * term:
            failures.append(f"sg cost {mx} exceeds 2*{fitted:.0f}*{term:.2f} at n={n}")

    # kary: within 2c' log2 n / log2 log2 n, fitted at the smallest size
    s = gal["S3"]
    fitted = None
    for n in sizes:
        mx_u, mx_q = _max_update_cost(
            lambda n_, rng: make_kary_engine(s, [rng.randrange(s.size) for _ in range(n_)]),
            lambda rng: rng.randrange(s.size),
            n,
        )
        mx = max(mx_u, mx_q)
        term = math.log2(n) / math.log2(math.log2(n))
        if fitted is None:
            fitted = mx / term
        elif mx > 2 * fitted * term:
            failures.append(f"kary cost {mx} exceeds bound at n={n}")

    wall = time.perf_counter() - t0
    _report(3, not failures, f"{failures or 'all counter bounds hold'} ({wall:.0f}s)")


# -- criterion 4: vEB ------------------------------------------------------------


def test_criterion_4_veb():
    failures = []
    fitted_probe = None
    fitted_build = None
    for span in (2**8, 2**12, 2**16):
        rng = random.Random(SEED + span)
        m = VebMap(span)
        ref = {}
        worst = 0
        for _ in range(100_000):
            before = m.probes
            op = rng.random()
            k = rng.randint(1, span)
            if op < 0.35 and k not in ref:
                lab = rng.randrange(4)
                m.insert(k, lab)
                ref[k] = lab
            elif op < 0.55 and ref:
                k = next(iter(ref))
                m.delete(k)
                del ref[k]
            elif op < 0.7:
                if m.retrieve(k) != ref.get(k):
                    failures.append(f"retrieve mismatch at span {span}")
            elif op < 0.85:
                want = max((x for x in ref if x <= k), default=None)
                if m.find_prev(k) != want:
                    failures.append(f"find_prev mismatch at span {span}")
            else:
                want = min((x for x in ref if x >= k), default=None)
                if m.find_next(k) != want:
                    failures.append(f"find_next mismatch at span {span}")
            worst = max(worst, m.probes - before)

        keys = range(1, span + 1, 2)
        built = VebMap.build(span, keys, [0] * len(keys))
        build_ratio = built.writes / span
        probe_term = math.log2(math.log2(span)) + 1
        if fitted_probe is None:
            fitted_probe = worst / probe_term
            fitted_build = build_ratio
        else:
            if worst > 2 * fitted_probe * probe_term:
                failures.append(f"probe bound exceeded at span {span}: {worst}")
            if build_ratio > 2 * fitted_build:
                failures.append(f"build writes superlinear at span {span}")
    _report(4, not failures, f"{failures or 'exact + bounds hold'}")


# -- criterion 5: algebraic identities -------------------------------------------


def test_criterion_5_algebraic_identities(gal):
    failures = []
    for name, s in gal.items():
        if check_variety(s, "ZG") != (check_variety(s, "SG") and check_variety(s, "ZE")):
            failures.append(f"ZG != SG&ZE on {name}")
        if check_variety(s, "SG") != check_variety(s, ("LOCAL", "SG")):
            failures.append(f"LSG != SG on {name}")
        js = green_j(s)
        for cid in js.maximal_classes:
            cls = set(js.classes[cid])
            for x in range(s.size):
                for y in range(s.size):
                    if s.table[x][y] in cls and not (x in cls and y in cls):
                        failures.append(f"absorption fails on {name}")
            if not js.regular[cid]:
                if any(s.table[x][y] in cls for x in cls for y in cls):
                    failures.append(f"non-regular collapse fails on {name}")
        for cid in range(len(js.classes)):
            if not js.regular[cid]:
                continue
            r = rees_decompose(s, cid, js, require_maximal=False)
            for a in js.classes[cid]:
                for b in js.classes[cid]:
                    prod = s.table[a][b]
                    via = rees_product(r, a, b)
                    want = prod if prod in set(js.classes[cid]) else None
                    if via != want:
                        failures.append(f"Rees reconstruction fails on {name}")
            if check_variety(s, "SG") and not check_variety(r.group, "COM"):
                failures.append(f"structuring group not commutative on {name}")

    # swap identity on 1000 random instances across SG gallery members
    rng = random.Random(SEED)
    instances = 0
    sg_members = [
        (name, s) for name, s in gal.items() if check_variety(s, "SG")
    ]
    while instances < 1000:
        name, s = sg_members[instances % len(sg_members)]
        js = green_j(s)
        regular_max = [c for c in js.maximal_classes if js.regular[c]]
        if not regular_max:
            instances += 1
            continue
        r = rees_decompose(s, regular_max[0], js)
        cls = list(js.classes[regular_max[0]])
        u, v = rng.choice(cls), rng.choice(cls)
        i, g, j = r.coord[u]
        i2, g2, j2 = r.coord[v]
        pre = [rng.randrange(s.size) for _ in range(rng.randrange(3))]
        mid = [rng.randrange(s.size) for _ in range(rng.randrange(3))]
        post = [rng.randrange(s.size) for _ in range(rng.randrange(3))]
        w1 = pre + [u] + mid + [v] + post
        w2 = (
            pre
            + [r.uncoord[(i, r.g_mul(g, g2), j)]]
            + mid
            + [r.uncoord[(i2, r.g_identity, j2)]]
            + post
        )
        if s.eval_word(w1) != s.eval_word(w2):
            failures.append(f"swap identity fails on {name}")
            break
        instances += 1
    _report(5, not failures, f"{failures or 'all identities exact'}")


# -- criterion 6: gadget round trips ----------------------------------------------


def test_criterion_6_gadget_round_trips():
    failures = []
    pat_u1 = re.compile(r"c*x[ac]*$")
    pat_u2 = re.compile(r"[abc]*bc*x[abc]*$")
    pat_ab = re.compile(r"a*b*$")

    m = u2()
    x, y = find_violation(m, "ZE")
    for n in range(1, 6):
        for bits in itertools.product((0, 1), repeat=n):
            g = PrefixU1ViaMonoid(m, x, y, n, word=list(bits))
            snap = g.engine.snapshot()
            for j in range(n + 1):
                if g.query(j) != any(b == 0 for b in bits[:j]):
                    failures.append(f"prefix-u1 exhaustive {bits} {j}")
                if g.engine.snapshot() != snap:
                    failures.append("prefix-u1 restore")

    rng = random.Random(SEED)
    for _ in range(64):
        n = 64
        bits = [rng.randrange(2) for _ in range(n)]
        g = PrefixU1ViaMonoid(m, x, y, n, word=list(bits))
        j = rng.randrange(n + 1)
        if g.query(j) != any(b == 0 for b in bits[:j]):
            failures.append("prefix-u1 random")

    for n in range(1, 6):
        for w in itertools.product("1ab", repeat=n):
            ad = PrefixU2ViaLanguage(list(w))
            snap = ad.engine.snapshot()
            for k in range(1, n + 1):
                nn = [c for c in w[:k] if c != "1"]
                want = nn[-1] if nn else "1"
                if ad.query(k) != want:
                    failures.append(f"prefix-u2 exhaustive {w} {k}")
                if ad.engine.snapshot() != snap:
                    failures.append("prefix-u2 restore")
        for w in itertools.product("acx", repeat=n):
            ad = membership_l_u1(list(w))
            if ad.query() != bool(pat_u1.match("".join(w))):
                failures.append(f"L_U1 membership {w}")
        for w in itertools.product("abcx", repeat=n):
            ad = membership_l_u2(list(w))
            if ad.query() != bool(pat_u2.match("".join(w))):
                failures.append(f"L_U2 membership {w}")

    for _ in range(64):
        n = 64
        w = [rng.choice("1ab") for _ in range(n)]
        ad = PrefixU2ViaLanguage(list(w))
        k = rng.randrange(1, n + 1)
        nn = [c for c in w[:k] if c != "1"]
        want = nn[-1] if nn else "1"
        if ad.query(k) != want:
            failures.append("prefix-u2 random")

    from dynreg.syntactic import parse_regex, regex_to_dfa

    d = minimize_dfa(regex_to_dfa(parse_regex("a*b*", "ab"), "ab"))
    for n in range(1, 6):
        for w in itertools.product("ab", repeat=n):
            ad = InfixAdapter(d, list(w))
            snap = ad.engine.snapshot()
            for i in range(n):
                for j in range(i, n):
                    want = bool(pat_ab.match("".join(w[i : j + 1])))
                    if ad.infix_query(i, j) != want:
                        failures.append(f"infix exhaustive {w} {i} {j}")
                    if ad.engine.snapshot() != snap:
                        failures.append("infix restore")
    for _ in range(64):
        w = [rng.choice("ab") for _ in range(64)]
        ad = InfixAdapter(d, list(w))
        i = rng.randrange(64)
        j = rng.randrange(i, 64)
        if ad.infix_query(i, j) != bool(pat_ab.match("".join(w[i : j + 1]))):
            failures.append("infix random")

    _report(6, not failures, f"{failures[:3] or 'all round trips exact'}")


# -- criterion 7: worked example ---------------------------------------------------


def test_criterion_7_worked_example(tmp_path):
    lang = tmp_path / "abstar.json"
    lang.write_text(json.dumps({"alphabet": "ab", "regex": "a*b*"}))
    stream = tmp_path / "stream.txt"
    stream.write_text("Q\nU 2 b\nQ\nU 3 b\nQ\n")
    r = subprocess.run(
        [sys.executable, "-m", "dynreg.cli", "run", str(lang),
         "--word", "aaaa", "--stream", str(stream), "--check"],
        capture_output=True,
        text=True,
    )
    answers = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    ok = r.returncode == 0 and answers == ["true", "false", "true"]
    _report(7, ok, f"answers={answers}")
