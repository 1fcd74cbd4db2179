"""The engine registry is the one place engine names and preconditions live."""

import re

import pytest

from dynreg import cli
from dynreg.engines import REGISTRY, eligible_engines, make_auto_engine
from dynreg.errors import NotCommutative, NotNilPlusOne, NotSg, NotZg


def test_precondition_holds_exactly_when_the_factory_builds(gal):
    for name, s in sorted(gal.items()):
        word = list(range(s.size))
        for entry in REGISTRY:
            try:
                entry.factory(s, list(word))
                built = True
            except (NotCommutative, NotNilPlusOne, NotZg, NotSg):
                built = False
            assert built == entry.applies(s), (name, entry.name)


def test_auto_ladder_order():
    names = [entry.name for entry in REGISTRY]
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
    assert choices == ["auto"] + [entry.name for entry in REGISTRY]
