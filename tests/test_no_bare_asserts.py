"""No `assert` statement in the library: python -O strips them, and every
invariant check must keep working there (raise InternalError instead)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dynreg

PACKAGE = Path(dynreg.__file__).parent


def test_library_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, PACKAGE
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements vanish under python -O: {found}"


# a pair-layer group of one letter, checked with assertions stripped
CORRUPT_GROUP_UNDER_O = """
from dynreg.algebra import FiniteSemigroup
from dynreg.engines import make_sg_engine
from dynreg.errors import InternalError

s = FiniteSemigroup([[1, 2, 2], [2, 2, 2], [2, 2, 2]])
eng = make_sg_engine(s, [0] * 6)
below = eng.layers[1]
below.inp.insert(1, 0)
try:
    eng.top.validate()
except InternalError as exc:
    print(__debug__, exc)
"""


def test_validate_raises_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])])
    r = subprocess.run([sys.executable, "-O", "-c", CORRUPT_GROUP_UNDER_O],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False pair layer group of 1 letters at key 1\n"
