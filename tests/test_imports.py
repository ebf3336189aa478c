"""Every module-level import in the package is used by its module, and
every function the benchmark tracer looks up by name exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_benchmark_trace_targets_resolve():
    """perfbench/spans.py finds each traced function with getattr on
    mquant.<module>, so a missing one would crash `run.py --trace 1`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.TARGETS) > 20
    missing = [
        f"mquant.{module}.{name}"
        for module, name, *_ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"mquant.{module}"), name, None))
    ]
    assert missing == []


def test_runtime_loads_no_scipy():
    """scipy is a test-only dependency: importing the package and its CLI in
    a fresh interpreter loads no scipy module."""
    code = (
        "import sys, mquant, mquant.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert done.stdout.strip() == "[]"
