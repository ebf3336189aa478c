"""Every module-level import in the package is used by its module, every
definition is named by production code, and every function the benchmark
tracer looks up by name exists."""

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

# Definitions that no production code names, each with the reason it stays.
UNREFERENCED = {
    "msq_aifs.unified_causal_mask": "the paper's closed form: acceptance test 1 "
    "certifies it and the benchmark traces it",
    "msq_aifs.rope_rotate": "the tests' rotary oracle; the benchmark traces it",
    "numerics.masked_softmax_rows": "the tests' softmax oracle; the benchmark traces it",
    "msq_aifs.ModalityLayout.visual_spans": "the benchmark checks its layouts with it",
    "msq_aifs.ModalityLayout.visual_count": "the benchmark checks its layouts with it",
    "pipeline.apply_lossless_stack": "acceptance test 8's float-equivalent stack",
    "hadamard.incoherence_ratio": "waits for the per-layer incoherence report "
    "(ROADMAP item 5)",
}


def production_trees() -> dict:
    return {
        p.stem: ast.parse(p.read_text())
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py"
    }


def unused_imports(module: str, tree: ast.Module) -> set:
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {(module, name) for name in imported - used}


def test_no_unused_module_level_imports():
    trees = production_trees()
    assert len(trees) > 5
    unused = set().union(*(unused_imports(m, t) for m, t in trees.items()))
    assert unused - ALLOWED == set()
    assert ALLOWED <= unused, "allowlisted import is now used; drop it from ALLOWED"


def definitions(module: str, tree: ast.Module):
    """(qualified name, bare name) of every module-level function and class
    and of every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


def test_every_definition_is_named_by_production_code():
    """No production helper that only tests or the benchmark use: each
    definition's name appears in production code outside the definition
    itself, as a name or an attribute.  The package __init__'s re-exports
    do not count."""
    trees = production_trees()
    named = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    unreferenced = {
        qual
        for module, tree in trees.items()
        for qual, name in definitions(module, tree)
        if name not in named
    }
    assert unreferenced - UNREFERENCED.keys() == set()
    assert UNREFERENCED.keys() <= unreferenced, (
        "allowlisted definition is now named by production code; "
        "drop it from UNREFERENCED"
    )


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
