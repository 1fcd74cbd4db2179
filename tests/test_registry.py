"""Engine selection: every factory owns its precondition, and one ladder walk
picks an engine and decides every downgrade."""

import re

import pytest

from dynreg import cli
from dynreg.algebra.core import restriction
from dynreg.engines import REGISTRY, eligible_engines, make_auto_engine
from dynreg.errors import NotApplicable, RangeError


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


def test_auto_ladder_order():
    names = [name for name, _ in REGISTRY]
    assert names[: names.index("kary") + 1] == ["count", "nilpotent", "zg", "sg", "kary"]


def test_auto_engine_is_the_first_eligible_entry(gal):
    for name, s in sorted(gal.items()):
        picked = make_auto_engine(s, [0])
        first, factory = eligible_engines(s)[0]
        assert picked.kind == factory(s, [0]).kind, (name, first)
        assert eligible_engines(s)[-1][0] == "kary", name


def test_cli_engine_choices_are_auto_plus_the_registry(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    usage = capsys.readouterr().out
    choices = re.search(r"--engine \{([^}]*)\}", usage).group(1).split(",")
    assert choices == ["auto"] + [name for name, _ in REGISTRY]
