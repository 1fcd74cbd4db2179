"""No `assert` statement in the library: python -O strips them, and every
invariant check must keep working there (raise InternalError instead)."""

import ast
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
