"""No uncalled private helper in the library: a private function, method or
class that nothing in the package names is dead code left behind by a
refactor."""

import ast
from pathlib import Path

import dynreg

PACKAGE = Path(dynreg.__file__).parent


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_library_has_no_uncalled_private_helpers():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, PACKAGE
    defined = []
    referenced = set()
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.append((f"{path.relative_to(PACKAGE.parent)}:{node.lineno}",
                                    node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    found = [f"{where} {name}" for where, name in defined if name not in referenced]
    assert not found, f"private helpers nothing refers to: {found}"
