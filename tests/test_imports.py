"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import mquant

SRC = Path(mquant.__file__).parent

# The benchmark tracer asserts that it rebinds matmul in these modules
# (perfbench/test_perfbench.py), so the bindings stay although the modules
# never call them.
ALLOWED = {("hadamard", "matmul"), ("pipeline", "matmul")}


def unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {(path.stem, name) for name in imported - used}


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = set().union(*(unused_imports(p) for p in modules))
    assert unused - ALLOWED == set()
    assert ALLOWED <= unused, "allowlisted import is now used; drop it from ALLOWED"
