"""No unused import in the library: an import nothing reads is dead weight
and hides which modules a module really depends on."""

import ast
from pathlib import Path

import dynreg

PACKAGE = Path(dynreg.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_library_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules, PACKAGE
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE.parent)}:{line} {name}"
            for line, name in _unused_imports(tree)
        ]
    assert not found, f"imported but never used: {found}"
