"""Tests of the benchmark itself: its metric tables, the tracer's patching,
the statistics, and that the output checks catch a corrupted model.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mquant import cli, model, numerics, pipeline  # noqa: E402
from mquant.msq_aifs import VISUAL, ModalityLayout, MsqParams  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _swap_grids(qm):
    """Corrupt a quantized model in memory: visual and text grids swapped."""
    qm.msq = [
        MsqParams(bits=m.bits, symmetric=m.symmetric, visual=m.text, text=m.visual)
        for m in qm.msq
    ]
    return qm


@pytest.fixture(scope="module")
def small_qm():
    pcfg = pipeline.PipelineConfig()
    samples = pipeline.generate_synthetic_samples(4, 16, seed=0)
    return pipeline.mquant_quantize(model.build_toy_mllm(pcfg.model), pcfg, samples=samples)


def _sample(length=24, seed=0):
    rng = np.random.default_rng(seed)
    tags = workloads._spans_layout(rng, length, length // 2, 2)
    return workloads._rows(rng, tags), tags


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _, _ in spans.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_tracer_rebinds_every_copy_and_restores_them(small_qm):
    matmul = numerics.matmul
    rows, tags = _sample()
    tracer = spans.Tracer()
    with tracer:
        assert model.matmul is not matmul and pipeline.matmul is not matmul
        small_qm.forward(rows, tags)
    assert {
        "mquant.numerics", "mquant.model", "mquant.msq_aifs",
        "mquant.rms", "mquant.hadamard", "mquant.pipeline",
    } <= tracer.coverage["numerics.matmul"]
    assert model.matmul is matmul and pipeline.matmul is matmul
    spans.assert_unpatched()

    metrics = spans.layer_metrics(tracer, 1, 0.0)
    assert metrics["msq_aifs.scale_ops_static"]["value"] == 2 * workloads.LLM_BLOCKS
    assert metrics["pipeline.QuantizedModel.forward.calls"]["value"] == 1
    assert metrics["model.vision_encode.tokens"]["value"] == (tags == VISUAL).sum()
    assert metrics["numerics.matmul.flop"]["value"] > 0
    assert metrics["msq_aifs.permuted_mask_oracle.calls"]["value"] == 1


def test_tracer_restores_bindings_when_the_op_raises(small_qm):
    rows, tags = _sample()
    with pytest.raises(ValueError):
        with spans.Tracer():
            small_qm.forward(rows, tags[:-1])
    spans.assert_unpatched()


def test_assert_unpatched_names_a_wrapper_left_in_place(monkeypatch):
    left = spans.Tracer()._wrap("numerics.matmul", numerics.matmul, None, None)
    monkeypatch.setattr(model, "matmul", left)
    with pytest.raises(RuntimeError, match="mquant.model.matmul"):
        spans.assert_unpatched()


def test_self_time_subtracts_direct_children_and_divides_by_ops():
    tracer = spans.Tracer()
    tracer.spans = [
        ("rms.rms_forward", 0.0, 2.0, -1, 1),
        ("quantizer.fake_quant", 0.5, 1.0, 0, 1),
        ("quantizer.quantize", 0.6, 0.8, 1, 1),
    ]
    metrics = spans.layer_metrics(tracer, 2, 0.1)
    assert metrics["rms.rms_forward.self_s"]["value"] == pytest.approx(0.75)
    assert metrics["quantizer.fake_quant.self_s"]["value"] == pytest.approx(0.15)
    assert metrics["quantizer.quantize.self_s"]["value"] == pytest.approx(0.1)
    assert metrics["rms.requant_per_call"]["value"] == 1.0
    assert metrics["trace.overhead_frac"]["value"] == 0.1


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail(range(20, 0, -1)) == (10, 50.0, 20)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_spans_layout_places_the_requested_visual_runs():
    rng = np.random.default_rng(0)
    for length in (16, 32, 64):
        for spans_wanted in (1, 2, 3):
            for _ in range(50):
                tags = workloads._spans_layout(rng, length, length // 2, spans_wanted)
                layout = ModalityLayout(tags)
                assert len(layout) == length and layout.visual_count == length // 2
                assert len(layout.visual_spans()) == spans_wanted


def test_corrupted_grids_make_eval_mixed_ops_fail(tmp_path):
    wl = workloads.EvalMixed(0, tmp_path)
    wl.setup()
    records = run.timed_loop(wl, workloads.KINDS, 0.01, None)
    assert all(r["ok"] for r in records)
    assert wl.verify_end() == 0

    _swap_grids(wl.qm)
    records = run.timed_loop(wl, workloads.KINDS, 0.01, None)
    assert sum(not r["ok"] for r in records) > 0


def test_corrupted_grids_fail_the_prefill_warm_up_check(tmp_path):
    wl = workloads.PrefillLong(0, tmp_path)
    wl.setup()
    _swap_grids(wl.qm)
    warm = wl.inputs(0)
    _, result = wl.run("static", warm)
    with pytest.raises(workloads.CheckFailed, match="cosine"):
        wl.verify_setup(warm, result)


def test_desk_cli_reports_the_frozen_cosine_at_seed_123(tmp_path):
    wl = workloads.DeskCli(workloads.FROZEN_SEED, tmp_path)
    wl.setup()
    _, result = wl.run("static", None)
    cosines, _ = wl.verify_setup(None, result)
    assert cosines["static"] == workloads.FROZEN_STATIC_COSINE


def test_corrupted_reload_makes_desk_cli_ops_fail(tmp_path, monkeypatch):
    wl = workloads.DeskCli(5, tmp_path)
    wl.setup()
    wl.expected = wl.reference()
    monkeypatch.setattr(
        cli, "qmodel_from_dict", lambda d: _swap_grids(pipeline.qmodel_from_dict(d))
    )
    records = run.timed_loop(wl, workloads.KINDS, 0.01, None)
    assert [r["ok"] for r in records] == [False, True]


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_the_result_contract(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_cli", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expect = run.END_TO_END if trace == 0 else {m: u for m, u, _, _ in spans.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expect
    report = json.loads(report_line)["report"]
    assert {"nproc", "cpu_model", "blas", "blas_threads", "numpy", "scipy", "python",
            "seed"} <= set(report["machine"])
    assert report["metrics"]["error_rate"]["value"] == 0.0
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
