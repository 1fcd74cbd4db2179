"""Engine selection: every factory owns its precondition, and one decision,
dispatch.route, picks an engine and logs every downgrade. Every engine keeps
one contract."""

import logging
import random
import re
import zlib

import numpy as np
import pytest

from dynreg import cli
from dynreg.algebra.core import direct_product, restriction
from dynreg.algebra.varieties import check_variety
from dynreg.engines import (
    REGISTRY,
    eligible_engines,
    make_auto_engine,
    make_language_engine,
    make_windowstats_engine,
)
from dynreg.errors import NotApplicable, RangeError
from dynreg.syntactic import analyze_dfa, analyze_regex


def _semigroups(gal):
    """The gallery plus zg5 with its identity removed, whose certificate
    engine works over the adjoined identity."""
    zg5 = gal["zg5"]
    out = dict(gal)
    out["zg5-minus-1"] = restriction(zg5, [x for x in range(zg5.size) if x != zg5.identity])[0]
    return sorted(out.items())


def test_every_factory_builds_or_raises_not_applicable(gal):
    # a factory checks its precondition before it reads the word, so a word
    # holding an out-of-range letter gets NotApplicable too, not RangeError
    for name, s in _semigroups(gal):
        for engine, factory in REGISTRY:
            try:
                factory(s, list(range(s.size)))
            except NotApplicable:
                for bad in (-1, s.size):
                    with pytest.raises(NotApplicable):
                        factory(s, [0, bad])


def test_factories_reject_letters_outside_the_callers_semigroup(gal):
    # engines that adjoin a zero or an identity still take only the ids of
    # the semigroup they were given, at build and at update
    for name, s in _semigroups(gal):
        for engine, factory in REGISTRY:
            try:
                factory(s, [0, 0])
            except NotApplicable:
                continue
            for bad in (-1, s.size):
                with pytest.raises(RangeError):
                    factory(s, [0, bad])
                eng = factory(s, [0, 0])
                with pytest.raises(RangeError):
                    eng.update(1, bad)
                assert eng.query() == s.table[0][0], (name, engine, bad)


NON_INTEGER_WORDS = [
    [0, 1.5], [0, 1.0], [0, "a"], [0, None], [0, [1]],
    np.array([0, 1.5]), np.array([0.0, 1.0]), np.array(["0", "1"]),
]


def test_factories_refuse_non_integer_letters_at_build(gal):
    # the build check refuses what update's check refuses: a float, even
    # 1.0, a str, None or a list; a non-integer ndarray is refused by its
    # dtype, whatever its values
    for name, s in _semigroups(gal):
        for engine, factory in REGISTRY:
            try:
                factory(s, [0, 0])
            except NotApplicable:
                continue
            for word in NON_INTEGER_WORDS:
                with pytest.raises(RangeError):
                    factory(s, word)
            for word in ([0, np.int64(0)], np.array([0, 0], dtype=np.uint8)):
                assert factory(s, word).query() == s.table[0][0], (name, engine)


def test_auto_ladder_order():
    # auto leaves sg out; sg follows kary and is built only by name
    names = [name for name, _ in REGISTRY]
    assert names == ["zg", "kary", "sg", "prefix", "naive"]


def test_route_alone_logs_each_downgrade_once(gal, caplog):
    # one WARNING from dispatch per downgraded build: auto over zg5 x Z3 (in
    # ZG, no certificate) and the even-a language (Q_LZG, neither a
    # certificate nor a window plan); zg, kary, windowstats, window and
    # language[kary] builds log nothing
    from test_language_engine import EVEN_A_DFA

    builds = [
        (lambda: make_auto_engine(direct_product(gal["zg5"], gal["Z3"]), [0]), "kary-downgraded"),
        (lambda: make_language_engine(*analyze_dfa(EVEN_A_DFA), list("ab")),
         "language[kary-downgraded]"),
        (lambda: make_auto_engine(gal["Z2xzg5"], [0]), "zg"),
        (lambda: make_auto_engine(gal["S3"], [0]), "kary"),
        (lambda: make_auto_engine(gal["abstar"], [0]), "windowstats"),
        (lambda: make_language_engine(*analyze_regex("(aa)*ba*", "ab"), list("ab")), "language[zg]"),
        (lambda: make_language_engine(*analyze_regex("a*b*", "ab"), list("ab")), "language[window]"),
        (lambda: make_language_engine(*analyze_regex("(a+b+c)*bc*x(a+b+c)*", "abcx"), list("abcx")),
         "language[kary]"),
    ]
    for build, kind in builds:
        caplog.clear()
        with caplog.at_level(logging.DEBUG):
            assert build().kind == kind
        logged = [(r.name, r.levelno) for r in caplog.records]
        want = [("dynreg.engines.dispatch", logging.WARNING)] if "downgraded" in kind else []
        assert logged == want, kind


def test_auto_engine_is_the_first_eligible_entry(gal):
    # but on abstar, in LOCAL ZG and not in ZG, whose verified window plan
    # auto runs through WindowStatsEngine, which no REGISTRY row builds
    for name, s in sorted(gal.items()):
        picked = make_auto_engine(s, [0])
        assert picked.kind in ("count", "nilpotent", "zg", "windowstats", "kary"), name
        assert (picked.kind == "windowstats") == (name == "abstar"), name
        if name != "abstar":
            first, factory = eligible_engines(s)[0]
            assert picked.kind == factory(s, [0]).kind, (name, first)
        assert picked.kind == "kary" or name != "U2", name
        assert "kary" in dict(eligible_engines(s)), name


def test_every_sg_semigroup_is_eligible_for_sg_and_kary(gal):
    # criterion 1 walks eligible_engines, so it still runs the vEB engine
    # that auto no longer builds
    for name, s in sorted(gal.items()):
        if check_variety(s, "SG"):
            names = [engine for engine, _ in eligible_engines(s)]
            assert "sg" in names and "kary" in names, (name, names)


def test_one_registry_row_per_engine_and_every_engine_is_eligible(gal):
    # criterion 1 walks eligible_engines: a second row that builds the same
    # engine class would only rerun its cells, and a class no row builds on
    # the gallery would go untested there
    built = set()
    for name, s in sorted(gal.items()):
        classes = [type(factory(s, [])).__name__ for _, factory in eligible_engines(s)]
        assert len(classes) == len(set(classes)), (name, classes)
        built.update(classes)
    assert built == {"CountEngine", "NilpotentEngine", "DivisionEngine", "KaryEngine",
                     "SgEngine", "VebPrefixEngine"}


def test_cli_engine_choices_are_auto_plus_the_registry(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    usage = capsys.readouterr().out
    choices = re.search(r"--engine \{([^}]*)\}", usage).group(1).split(",")
    assert choices == ["auto"] + [name for name, _ in REGISTRY]


def test_a_repeated_query_repeats_its_answer_and_its_work(gal):
    # no engine keeps a hidden answer: a second query with no update in
    # between gives the same answer and adds the same to op_count as the
    # first, on the word as built and after every update. The window plan
    # search takes seconds to fail on most other gallery semigroups.
    window = ("window", make_windowstats_engine)
    for name, s in _semigroups(gal):
        factories = REGISTRY + (window,) if name in ("U1", "Z2", "abstar", "asq0") else REGISTRY
        for engine, factory in factories:
            rng = random.Random(zlib.crc32(f"repeated query {name} {engine}".encode()))
            for n in (0, 1, 300):
                word = [rng.randrange(s.size) for _ in range(n)]
                try:
                    eng = factory(s, list(word))
                except NotApplicable:
                    break
                for _ in range(20 if n else 1):
                    got = []
                    for _ in range(2):
                        ops = eng.op_count
                        got.append((eng.query(), eng.op_count - ops))
                    assert got[0] == got[1], (name, engine, n)
                    want = s.eval_word(word) if n else None
                    assert got[0][0] == want, (name, engine, n)
                    if n:
                        p, a = rng.randrange(n), rng.randrange(s.size)
                        eng.update(p, a)
                        word[p] = a
