"""Every module-level import in the package and its tests is used by its
module, every definition is named by production code, every parameter is
read, only the mask
primitives take a mask, only the boundaries check their inputs, the
forward's one interception point is act_fn, model_forward is the one
forward driver, mquant_quantize is the one stage composer, only the
composers copy a model, and every function the benchmark tracer looks up
by name exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import mquant

SRC = Path(mquant.__file__).parent
TESTS = Path(__file__).resolve().parent

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
    "(ROADMAP item 2)",
    "quantizer.quantize": "the tests' fake-quant oracle",
    "quantizer.dequantize": "the tests' fake-quant oracle",
}


def module_trees(directory: Path) -> dict:
    return {
        p.stem: ast.parse(p.read_text())
        for p in sorted(directory.glob("*.py"))
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
    trees = module_trees(SRC)
    assert len(trees) > 5
    unused = set().union(*(unused_imports(m, t) for m, t in trees.items()))
    assert unused - ALLOWED == set()
    assert ALLOWED <= unused, "allowlisted import is now used; drop it from ALLOWED"


def test_no_unused_module_level_imports_in_the_tests():
    """The same rule for the test modules, with no allowlist."""
    trees = module_trees(TESTS)
    assert "test_imports" in trees and len(trees) > 10
    assert set().union(*(unused_imports(m, t) for m, t in trees.items())) == set()


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
    trees = module_trees(SRC)
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


# The only production functions that take an additive attention mask: the
# checked softmax and its check.  The forward passes positions to
# build_attention_plan, which builds every mask itself.
MASK_TAKERS = {"numerics.masked_softmax_rows", "numerics.check_mask"}


def parameters(node: ast.FunctionDef) -> list:
    return node.args.posonlyargs + node.args.args + node.args.kwonlyargs


def takers(parameter: str) -> set:
    """Every production function, method or nested function with a
    parameter of that name."""
    return {
        f"{module}.{node.name}"
        for module, tree in module_trees(SRC).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(arg.arg == parameter for arg in parameters(node))
    }


# Functions with a parameter that their body never reads, each with the
# reason it stays.
UNREAD = {
    "model._identity_act": "implements act_fn's signature (name, x, modality)",
}


def unread_parameters(node: ast.FunctionDef) -> list:
    """The parameters of node, other than _-named ones, that no name in
    its body (nested functions included) reads."""
    args = parameters(node) + [a for a in (node.args.vararg, node.args.kwarg) if a]
    read = {
        n.id
        for stmt in node.body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [a.arg for a in args if not a.arg.startswith("_") and a.arg not in read]


def test_every_parameter_is_read():
    """Every parameter of every production function, method and nested
    function is read in its body, so none is kept only for its callers to
    pass."""
    unread = {
        name: args
        for module, tree in module_trees(SRC).items()
        for name, node in functions(tree, module)
        if (args := unread_parameters(node))
    }
    assert unread.keys() - UNREAD.keys() == set(), unread
    assert UNREAD.keys() <= unread.keys(), "allowlisted function now reads them all"


def test_only_the_mask_primitives_take_a_mask():
    """No other production function, method or nested function has a
    parameter named mask."""
    assert takers("mask") == MASK_TAKERS


# The only production functions that call check_finite or as_tensor, each
# with what it checks.  The forward's kernels take checked operands (see
# numerics' docstring), so any other caller would re-check inside them.
CHECKERS = {
    "model.embed_tokens": "the forward's entry: sample, tags and lengths",
    "model.llm_stack": "the forward's output",
    "model.Linear.__post_init__": "a linear as it is built",
    "pipeline._packs": "evaluate's and calibration's samples, named by index",
    "fileio.tensor_to_bytes": "every tensor written",
    "fileio.tensor_from_bytes": "every tensor read: model files and sample batches",
    "fileio.save_samples": "a sample batch written",
    "quantizer.quantize": "its int32 cast would turn a NaN into a finite code",
    "quantizer.fake_quant": "every fake-quantized tensor: its clip would turn "
    "an inf into the grid's edge code",
    "quantizer.compute_params_absmax": "weight and calibration grids, and the "
    "dynamic path's per-token grids, by their slice min/max",
    "rms.build_split_plan": "the split plans, built at quantize time",
    "rms.detect_outliers": "the split plans, built at quantize time",
    "hadamard.incoherence": "an offline weight diagnostic",
    "hadamard.incoherence_ratio": "an offline weight diagnostic",
    "numerics.masked_softmax_rows": "the tests' softmax oracle",
}


def functions(tree: ast.Module, prefix: str):
    """(qualified name, node) of every function, method and nested
    function under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                yield name, node
            yield from functions(node, name)


def called_names(node: ast.FunctionDef) -> set:
    """Names the function's own body calls, nested functions excluded."""
    names, todo = set(), list(node.body)
    while todo:
        sub = todo.pop()
        if isinstance(sub, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(sub, ast.Call):
            func = sub.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
        todo.extend(ast.iter_child_nodes(sub))
    return names


def test_only_the_boundaries_check_their_inputs():
    """No production function other than CHECKERS calls check_finite or
    as_tensor, and each of CHECKERS still does."""
    checkers = {
        name
        for module, tree in module_trees(SRC).items()
        for name, node in functions(tree, module)
        if called_names(node) & {"check_finite", "as_tensor"}
    }
    assert checkers == CHECKERS.keys()


# The model's forward functions.  The quantized model freezes its weights
# and split plans into the model it runs, so the one thing a caller passes
# in at call time is act_fn, applied to every block input.
FORWARDS = {"block_forward", "vision_encode", "embed_tokens", "llm_stack", "model_forward"}


def test_act_fn_is_the_forwards_one_callable_parameter():
    """No production function takes hooks, and each forward function has
    exactly one parameter annotated Callable: act_fn."""
    assert takers("hooks") == set()
    forwards = {
        node.name: node
        for node in module_trees(SRC)["model"].body
        if isinstance(node, ast.FunctionDef) and node.name in FORWARDS
    }
    assert forwards.keys() == FORWARDS
    for name, node in forwards.items():
        args = parameters(node)
        assert all(arg.annotation is not None for arg in args), name
        callables = [arg.arg for arg in args if "Callable" in ast.unparse(arg.annotation)]
        assert callables == ["act_fn"], name


def test_model_forward_is_the_one_forward_driver():
    """The float reference, calibration and the quantized forward all run
    model_forward: it is the only production caller of the forward's
    entry, its run order and its LLM stack, so no second driver can
    repeat them."""
    for callee in ("embed_tokens", "build_aifs_plan", "llm_stack"):
        callers = {
            name
            for module, tree in module_trees(SRC).items()
            for name, node in functions(tree, module)
            if callee in called_names(node)
        }
        assert callers == {"model.model_forward"}, callee


def test_mquant_quantize_is_the_one_stage_composer():
    """The quantize order lives in one function: mquant_quantize calls
    every stage (the seven the benchmark traces, and stage_set_calibration
    in place of stage_calibrate), and the only other production callers of
    a stage are calibrate_pipeline and apply_lossless_stack, which each run
    a part of it in the same order."""
    stages = {
        node.name
        for node in module_trees(SRC)["pipeline"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("stage_")
    }
    assert len(stages) == 8
    calls = {
        name: called_names(node) & stages
        for module, tree in module_trees(SRC).items()
        for name, node in functions(tree, module)
    }
    assert {name for name, called in calls.items() if called} == {
        "pipeline.mquant_quantize",
        "pipeline.calibrate_pipeline",
        "pipeline.apply_lossless_stack",
    }
    assert calls["pipeline.mquant_quantize"] == stages


def copy_calls(node: ast.FunctionDef) -> int:
    """Calls of a copy-module function in the function's own body, nested
    functions excluded."""
    count, todo = 0, list(node.body)
    while todo:
        sub = todo.pop()
        if isinstance(sub, (ast.FunctionDef, ast.Lambda)):
            continue
        func = sub.func if isinstance(sub, ast.Call) else None
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "copy":
            count += 1
        todo.extend(ast.iter_child_nodes(sub))
    return count


def test_only_the_composers_copy_a_model():
    """Every stage rewrites the model it is given, in place: the three
    composers are the only production functions that copy a model, each
    with one copy.deepcopy of its float model, so a pipeline run works on
    one copy and never writes the float model."""
    trees = module_trees(SRC)
    assert not [
        node for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "copy"
    ]
    copies = {
        name: copy_calls(node)
        for module, tree in trees.items()
        for name, node in functions(tree, module)
        if copy_calls(node)
    }
    assert copies == {
        "pipeline.mquant_quantize": 1,
        "pipeline.calibrate_pipeline": 1,
        "pipeline.apply_lossless_stack": 1,
    }


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


def fresh_interpreter(code: str) -> str:
    """What code prints in a new interpreter that imports this tree."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return done.stdout.strip()


def test_runtime_loads_no_scipy():
    """scipy is a test-only dependency: importing the package and its CLI in
    a fresh interpreter loads no scipy module."""
    code = (
        "import sys, mquant, mquant.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_interpreter(code) == "[]"


def test_import_loads_no_thread_pool():
    """The lanes' worker pool is made at the first fork: importing the
    package and its CLI in a fresh interpreter loads neither
    concurrent.futures nor the logging it imports (≈12 ms together)."""
    code = (
        "import sys, mquant, mquant.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'logging')))"
    )
    assert fresh_interpreter(code) == "[]"


def test_import_without_sched_getaffinity():
    """macOS and Windows have no os.sched_getaffinity: the package and its
    CLI still import, and the lane count comes from the CPU count."""
    code = (
        "import os\n"
        "if hasattr(os, 'sched_getaffinity'): del os.sched_getaffinity\n"
        "import mquant, mquant.cli\n"
        "print(mquant.lanes.LANES)"
    )
    assert fresh_interpreter(code) in ("1", "2")
