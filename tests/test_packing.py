"""Packed forwards: several samples stacked into one forward, with
attention confined to each sample.

The per-sample loops that evaluate and calibrate_rotated ran before
packing are kept here as the oracles: a packed member must match its lone
forward within 1e-12 * max |lone|, reports must match the per-sample loop,
and no member may see another.
"""

import importlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant import model as model_module
from mquant import msq_aifs, pipeline
from mquant.model import (
    build_toy_mllm,
    embed_tokens,
    llm_stack,
    model_forward,
)
from mquant.msq_aifs import (
    TEXT,
    VISUAL,
    ModalityLayout,
    build_aifs_plan,
    build_attention_plan,
    calibrate_msq,
)
from mquant.pipeline import (
    PACK_ROWS,
    CalibrationResult,
    PipelineConfig,
    calibrate_pipeline,
    cosine_and_mse,
    evaluate,
    generate_synthetic_samples,
    mquant_quantize,
    new_state,
    stage_rotate_llm,
)
from mquant.quantizer import calibrate_static

D = 16


def small_pcfg(**overrides):
    base = dict(d_model=D, n_heads=2, vision_blocks=1, llm_blocks=2, mlp_ratio=2)
    base.update(overrides)
    return PipelineConfig.from_dict(base)


@pytest.fixture(scope="module")
def float_model():
    return build_toy_mllm(small_pcfg().model)


@pytest.fixture(scope="module")
def qms(float_model):
    """A quantized model per AIFS setting, from one calibration batch."""
    samples = generate_synthetic_samples(6, 10, seed=42, d_model=D)
    return {
        aifs: mquant_quantize(float_model, small_pcfg(aifs=aifs), samples=samples)
        for aifs in (True, False)
    }


def make_sample(rng, length, kind):
    """Rows and layout of one sample: mixed, all text or all visual."""
    if kind == "text":
        tags = np.full(length, TEXT)
    elif kind == "visual":
        tags = np.full(length, VISUAL)
    else:
        tags = rng.integers(0, 2, size=length)
    rows = rng.uniform(-0.5, 0.5, size=(length, D))
    vis = tags == VISUAL
    rows[vis] = rng.uniform(-20.0, 10.0, size=(int(vis.sum()), D))
    return rows, ModalityLayout(tags)


def stack(samples):
    return (
        np.vstack([rows for rows, _ in samples]),
        np.concatenate([layout.modality for _, layout in samples]),
        [len(layout) for _, layout in samples],
    )


def members(out, lengths):
    return np.split(out, np.cumsum(lengths)[:-1])


# ===== oracles: the per-sample loops =====


def evaluate_per_sample(qm, samples, dynamic=False):
    """(cosine, mse, scale_ops) of each sample from its own two forwards."""
    rows_out = []
    for rows, layout in samples:
        ref = model_forward(qm.float_model, rows, layout.modality)
        out = qm.forward(rows, layout.modality, dynamic=dynamic)
        rows_out.append((*cosine_and_mse(out, ref), qm.counter.scale_ops))
    return rows_out


def calibrate_per_sample(float_model, samples, pcfg):
    """calibrate_pipeline with one float forward per sample."""
    state = new_state(float_model, pcfg)
    stage_rotate_llm(state)
    work = state.model
    llm_inputs = [[] for _ in work.llm_blocks]
    vision_inputs = [[] for _ in work.vision_blocks]

    def recorder(name, x, modality):
        part, idx = name.split(".")[0], int(name.split(".")[1])
        (llm_inputs if part == "llm" else vision_inputs)[idx].append(x)
        return x

    run_layouts = []
    for rows, layout in samples:
        x, _, _ = embed_tokens(work, rows, layout.modality, recorder)
        perm = build_aifs_plan(layout) if pcfg.aifs else np.arange(len(layout))
        run_layouts.append(ModalityLayout(layout.modality[perm]))
        llm_stack(
            work, x[perm], build_attention_plan([len(layout)], perm), perm,
            layout.modality[perm], recorder,
        )
    return CalibrationResult(
        fingerprint="",
        msq=[
            calibrate_msq(zip(inputs, run_layouts), pcfg.bits_a, pcfg.symmetric_activations)
            for inputs in llm_inputs
        ],
        vision_act=[
            calibrate_static(inputs, pcfg.bits_a, pcfg.symmetric_activations)
            for inputs in vision_inputs
        ],
        sample_count=len(samples),
        bits_a=pcfg.bits_a,
        symmetric=pcfg.symmetric_activations,
    )


def assert_close(got, lone):
    assert got.shape == lone.shape
    assert np.abs(got - lone).max() <= 1e-12 * np.abs(lone).max()


def assert_params_close(got, want):
    np.testing.assert_allclose(got.scales, want.scales, rtol=1e-12, atol=0)
    assert np.array_equal(got.zero_points, want.zero_points)


def assert_calibration_matches(got, want):
    assert got.sample_count == want.sample_count
    for g, w in zip(got.msq, want.msq, strict=True):
        assert_params_close(g.visual, w.visual)
        assert_params_close(g.text, w.text)
    for g, w in zip(got.vision_act, want.vision_act, strict=True):
        assert_params_close(g, w)


def assert_report_matches(report, oracle):
    per_sample = report["metrics"]["per_sample"]
    assert len(per_sample) == len(oracle)
    for s, (cos, mse, ops) in zip(per_sample, oracle):
        assert s["scale_ops"] == ops
        assert abs(s["cosine"] - cos) <= 1e-12
        assert abs(s["mse"] - mse) <= 1e-12 * mse
    assert report["counters"]["scale_ops_by_sample"] == [ops for _, _, ops in oracle]


def calibrate_both(float_model, samples, pcfg):
    """The packed and the per-sample calibration, or None for both when
    the batch has no visual row (the vision grids then have no data)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not any(layout.visual_count for _, layout in samples):
            for fn in (calibrate_pipeline, calibrate_per_sample):
                with pytest.raises(ValueError, match="calibration stream is empty"):
                    fn(float_model, samples, pcfg)
            return None
        return (
            calibrate_pipeline(float_model, samples, pcfg),
            calibrate_per_sample(float_model, samples, pcfg),
        )


# ===== packed members match their lone forwards =====

LENGTH = st.one_of(st.sampled_from([1, 2, 63, 64, 65, 130]), st.integers(1, 130))


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(LENGTH, min_size=1, max_size=6),
    kinds=st.lists(st.sampled_from(["mixed", "text", "visual"]), min_size=6, max_size=6),
    aifs=st.booleans(),
    dynamic=st.booleans(),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_members_match_lone_forwards(
    float_model, qms, lengths, kinds, aifs, dynamic, symmetric, seed
):
    rng = np.random.default_rng(seed)
    samples = [make_sample(rng, n, kind) for n, kind in zip(lengths, kinds)]
    rows, modality, lens = stack(samples)
    qm = qms[aifs]

    packed_float = members(model_forward(float_model, rows, modality, lengths=lens), lens)
    packed_q = members(qm.forward(rows, modality, dynamic=dynamic, lengths=lens), lens)
    for (x, layout), got_f, got_q in zip(samples, packed_float, packed_q):
        assert_close(got_f, model_forward(float_model, x, layout.modality))
        assert_close(got_q, qm.forward(x, layout.modality, dynamic=dynamic))

    assert_report_matches(
        evaluate(qm, samples, dynamic=dynamic), evaluate_per_sample(qm, samples, dynamic)
    )
    both = calibrate_both(
        float_model, samples, small_pcfg(aifs=aifs, symmetric_activations=symmetric)
    )
    if both is not None:
        assert_calibration_matches(*both)


def test_a_lone_forward_is_a_pack_of_one(float_model, qms):
    rows, layout = make_sample(np.random.default_rng(3), 40, "mixed")
    n = [40]
    assert np.array_equal(
        model_forward(float_model, rows, layout.modality, lengths=n),
        model_forward(float_model, rows, layout.modality),
    )
    for dynamic in (False, True):
        qm = qms[True]
        assert np.array_equal(
            qm.forward(rows, layout.modality, dynamic=dynamic, lengths=n),
            qm.forward(rows, layout.modality, dynamic=dynamic),
        )


def test_batches_beyond_one_pack_match_the_oracles(float_model, qms, monkeypatch):
    """A batch above PACK_ROWS splits into consecutive packs, and a sample
    longer than PACK_ROWS is a pack of its own; one quantized forward runs
    per pack."""
    rng = np.random.default_rng(11)
    lengths = [600, 400, 100, PACK_ROWS + 76, 30]
    samples = [make_sample(rng, n, "mixed") for n in lengths]
    qm = qms[True]
    real = pipeline.QuantizedModel.forward
    packs = []

    def counted(self, *args, **kwargs):
        packs.append(kwargs.get("lengths"))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pipeline.QuantizedModel, "forward", counted)
    for dynamic in (False, True):
        packs.clear()
        report = evaluate(qm, samples, dynamic=dynamic)
        assert packs == [[600, 400], [100], [PACK_ROWS + 76], [30]]
        assert_report_matches(report, evaluate_per_sample(qm, samples, dynamic))
    assert_calibration_matches(*calibrate_both(float_model, samples, small_pcfg()))


def test_scale_ops_per_sample_follow_the_cost_contract(qms):
    """Static: 2 per LLM block for every member; dynamic: its rows per block."""
    rng = np.random.default_rng(5)
    samples = [make_sample(rng, n, "mixed") for n in (3, 17, 64)]
    qm = qms[True]
    blocks = len(qm.model.llm_blocks)
    static = evaluate(qm, samples)["counters"]
    dynamic = evaluate(qm, samples, dynamic=True)["counters"]
    assert static["scale_ops_by_sample"] == [2 * blocks] * 3
    assert dynamic["scale_ops_by_sample"] == [n * blocks for n in (3, 17, 64)]
    assert static["scale_ops_total"] == 6 * blocks
    assert dynamic["scale_ops_total"] == 84 * blocks


# ===== no member sees another =====


@pytest.mark.parametrize("aifs", [True, False])
@pytest.mark.parametrize("kinds", [
    ("mixed", "mixed", "mixed", "mixed"),
    ("visual", "visual", "mixed", "visual"),
    ("text", "visual", "visual", "text"),
])
def test_changing_one_member_leaves_the_others_bitwise(float_model, qms, aifs, kinds):
    rng = np.random.default_rng(21)
    samples = [make_sample(rng, n, kind) for n, kind in zip((9, 70, 33, 65), kinds)]
    rows, modality, lens = stack(samples)
    qm = qms[aifs]
    runs = {
        "float": lambda r: model_forward(float_model, r, modality, lengths=lens),
        "static": lambda r: qm.forward(r, modality, lengths=lens),
        "dynamic": lambda r: qm.forward(r, modality, dynamic=True, lengths=lens),
    }
    starts = np.cumsum([0] + lens)
    for j in range(len(samples)):
        changed = rows.copy()
        block = changed[starts[j] : starts[j + 1]]
        changed[starts[j] : starts[j + 1]] = rng.permutation(block) * 1.5 + 0.25
        for name, run in runs.items():
            before, after = members(run(rows), lens), members(run(changed), lens)
            for i in range(len(samples)):
                if i != j:
                    assert np.array_equal(before[i], after[i]), (name, j, i)
            assert not np.array_equal(before[j], after[j]), (name, j)


# ===== lengths are checked where they enter =====

BAD_LENGTHS = [
    ([10, 20], "lengths sum to 30"),
    ([10, 0, 30], "lengths must be positive ints"),
    ([50, -10], "lengths must be positive ints"),
    ([20.0, 20.0], "lengths must be positive ints"),
    ([True] * 40, "lengths must be positive ints"),
    ([], "lengths must be positive ints"),
]


@pytest.mark.parametrize("lengths, match", BAD_LENGTHS)
def test_bad_lengths_are_rejected(float_model, qms, lengths, match):
    rows, layout = make_sample(np.random.default_rng(1), 40, "mixed")
    with pytest.raises(ValueError, match=match):
        model_forward(float_model, rows, layout.modality, lengths=lengths)
    with pytest.raises(ValueError, match=match):
        qms[True].forward(rows, layout.modality, lengths=lengths)


def test_sample_rows_must_match_their_layout(qms):
    """Packing would hide a sample whose rows and tags disagree by offsetting
    the next one, so each sample is checked before it is stacked."""
    rng = np.random.default_rng(2)
    a, b = make_sample(rng, 10, "mixed"), make_sample(rng, 9, "mixed")
    skewed = [
        (a[0], ModalityLayout(a[1].modality[:9])),
        (b[0], ModalityLayout(np.r_[b[1].modality, TEXT])),
    ]
    with pytest.raises(ValueError, match="sample 0 has 10 rows but its layout tags 9"):
        evaluate(qms[True], skewed)
    with pytest.raises(ValueError, match="sample width 8 != model d_model 16"):
        evaluate(qms[True], [a, (b[0][:, :8], b[1])])


# ===== one forward driver =====


@pytest.mark.parametrize("aifs", [True, False])
def test_act_fn_sees_each_block_inputs_tags_in_run_order(float_model, aifs):
    """act_fn gets None in the vision blocks and, in the LLM blocks, the
    tags of x's rows in the order they run: the pack's visual rows as one
    prefix under AIFS, the pack's own order without it."""
    samples = [
        generate_synthetic_samples(1, len(spec), spec, seed=i, d_model=D)[0]
        for i, spec in enumerate(["tvvtv", "ttvvvtt", "ttt", "vvt"])
    ]
    rows, modality, lengths = stack(samples)
    seen = {}

    def act_fn(name, x, tags):
        assert tags is None or tags.shape == (x.shape[0],), name
        seen[name] = tags
        return x

    model_forward(float_model, rows, modality, act_fn, lengths, aifs)
    # visual-first across the pack: its tags sorted 1s first
    want = np.sort(modality)[::-1] if aifs else modality
    assert sorted(seen) == ["llm.0.input", "llm.1.input", "vision.0.input"]
    assert seen["vision.0.input"] is None
    for name in ("llm.0.input", "llm.1.input"):
        assert np.array_equal(seen[name], want), name


@pytest.mark.parametrize("aifs", [True, False])
def test_calibration_records_the_quantized_forwards_run_order(float_model, qms, aifs, monkeypatch):
    """The layout calibration records with each LLM block input is the
    row order the quantized forward's static grids see at that block."""
    samples = [make_sample(np.random.default_rng(i), n, "mixed") for i, n in enumerate((9, 14, 5))]
    rows, modality, lengths = stack(samples)
    recorded, applied = [], []
    calibrate_msq_, quantize_msq_ = pipeline.calibrate_msq, pipeline.quantize_msq

    def recording(pairs, *args, **kwargs):
        pairs = list(pairs)
        recorded.append(np.concatenate([layout.modality for _, layout in pairs]))
        return calibrate_msq_(pairs, *args, **kwargs)

    def applying(x, visual_rows, *args):
        applied.append(visual_rows)
        return quantize_msq_(x, visual_rows, *args)

    monkeypatch.setattr(pipeline, "calibrate_msq", recording)
    monkeypatch.setattr(pipeline, "quantize_msq", applying)
    pcfg = small_pcfg(aifs=aifs)
    pipeline.calibrate_pipeline(float_model, samples, pcfg)
    qms[aifs].forward(rows, modality, lengths=lengths)
    assert len(recorded) == len(applied) == pcfg.model.llm_blocks
    for tags, visual_rows in zip(recorded, applied):
        assert np.array_equal(tags == VISUAL, visual_rows)
    # the samples are mixed, so visual-first is not the pack's own order
    assert np.array_equal(applied[0], modality == VISUAL) != aifs


# ===== the benchmark's tracer over packed calls =====


def load_spans():
    importlib.import_module("mquant.cli")  # the tracer wraps CLI commands too
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_runs_over_packed_evaluate_and_calibrate(float_model, qms):
    """`perfbench/run.py --trace 1` wraps every traced function; its
    quantities must still read the packed calls."""
    spans = load_spans()
    samples = generate_synthetic_samples(5, 12, seed=9, d_model=D)
    visual = sum(layout.visual_count for _, layout in samples)
    runs = (
        (lambda: calibrate_pipeline(float_model, samples, small_pcfg()), 1),
        # evaluate encodes the visual rows twice: float reference and quantized
        (lambda: evaluate(qms[True], samples), 2),
    )
    for run, passes in runs:
        tracer = spans.Tracer()
        with tracer:
            run()
        spans.assert_unpatched()
        metrics = spans.layer_metrics(tracer, 1, 0.0)
        assert metrics["numerics.matmul.flop"]["value"] > 0
        assert metrics["model.vision_encode.tokens"]["value"] == passes * visual
        assert metrics["model.vision_encode.calls"]["value"] == passes


def test_each_forward_part_builds_one_attention_plan(monkeypatch):
    """With 3 + 3 blocks, QuantizedModel.forward, model_forward and
    calibrate_rotated each build one vision and one LLM attention plan per
    pack, not once per block."""
    pcfg = small_pcfg(vision_blocks=3, llm_blocks=3)
    model = build_toy_mllm(pcfg.model)
    qm = mquant_quantize(
        model, pcfg, samples=generate_synthetic_samples(4, 10, seed=3, d_model=D)
    )
    # two 12-row samples with 4 visual rows stack in both parts; the
    # 70-row sample with 66 visual rows is long in both
    samples = [
        generate_synthetic_samples(1, len(spec), spec, seed=i, d_model=D)[0]
        for i, spec in enumerate(["v" * 4 + "t" * 8] * 2 + ["tt" + "v" * 66 + "tt"])
    ]
    rows, modality, lengths = stack(samples)
    builds = []
    real_build = msq_aifs.build_attention_plan

    def counted_build(lengths, positions=None):
        builds.append(sum(lengths))
        return real_build(lengths, positions)

    for module in (msq_aifs, model_module):
        monkeypatch.setattr(module, "build_attention_plan", counted_build)
    for run in (
        lambda: qm.forward(rows, modality, lengths=lengths),
        lambda: qm.forward(rows, modality, dynamic=True, lengths=lengths),
        lambda: model_forward(model, rows, modality, lengths=lengths),
        lambda: pipeline.calibrate_rotated(model, "", samples, pcfg),
    ):
        builds.clear()
        run()
        assert sorted(builds) == [4 + 4 + 66, 12 + 12 + 70]
