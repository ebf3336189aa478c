"""Packed forwards: several samples stacked into one forward, with
attention confined to each sample.

The per-sample loops that evaluate and calibration ran before
packing are kept here as the oracles: a packed member must match its lone
forward within 1e-12 * max |lone|, reports must match the per-sample loop,
and no member may see another.
"""

import copy
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
)
from mquant.pipeline import (
    PACK_ROWS,
    PipelineConfig,
    calibrate_pipeline,
    cosine_and_mse,
    evaluate,
    generate_synthetic_samples,
    mquant_quantize,
    stage_rotate_llm,
)

D = 16


def small_pcfg(**overrides):
    base = dict(d_model=D, n_heads=2, vision_blocks=1, llm_blocks=2, mlp_ratio=2)
    base.update(overrides)
    return PipelineConfig.from_dict(base)


@pytest.fixture(scope="module")
def float_model():
    return build_toy_mllm(small_pcfg().model)


@pytest.fixture(scope="module")
def qm(float_model):
    samples = generate_synthetic_samples(6, 10, seed=42, d_model=D)
    return mquant_quantize(float_model, small_pcfg(), samples=samples)


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


def calibrate_per_sample(float_model, samples, order="visual_first"):
    """calibrate_pipeline's (sample_count, points) with one float forward
    per sample, its LLM rows in order, each point's ranges the min/max of
    its stacked inputs."""
    work = copy.deepcopy(float_model)
    stage_rotate_llm(work)
    inputs = {}

    def recorder(name, x, modality):
        tags = np.full(x.shape[0], VISUAL) if modality is None else modality
        inputs.setdefault(name, []).append((x, tags))
        return x

    for rows, layout in samples:
        x, _, _ = embed_tokens(work, rows, layout.modality, recorder)
        perm = np.arange(len(layout))
        if order == "visual_first":
            perm = build_aifs_plan(layout.modality)
        llm_stack(
            work, x[perm], build_attention_plan([len(layout)], perm), perm,
            layout.modality[perm], recorder,
        )
    if not any(name.startswith("vision.") for name in inputs):
        raise ValueError("calibration stream is empty: no visual rows")
    points = {}
    for name, pairs in inputs.items():
        x = np.vstack([x for x, _ in pairs])
        tags = np.concatenate([tags for _, tags in pairs])
        points[name] = {
            key: [x[tags == tag].min(), x[tags == tag].max()]
            for key, tag in (("visual", VISUAL), ("text", TEXT))
            if (tags == tag).any()
        }
    return len(samples), points


def assert_close(got, lone):
    assert got.shape == lone.shape
    assert np.abs(got - lone).max() <= 1e-12 * np.abs(lone).max()


def assert_calibration_matches(got, want):
    sample_count, points = want
    assert got.sample_count == sample_count
    assert got.points.keys() == points.keys()
    for name, ranges in points.items():
        assert got.points[name].keys() == ranges.keys(), name
        for key, r in ranges.items():
            np.testing.assert_allclose(got.points[name][key], r, rtol=1e-12, atol=0)


def assert_report_matches(report, oracle):
    per_sample = report["metrics"]["per_sample"]
    assert len(per_sample) == len(oracle)
    for s, (cos, mse, ops) in zip(per_sample, oracle):
        assert s["scale_ops"] == ops
        assert abs(s["cosine"] - cos) <= 1e-12
        assert abs(s["mse"] - mse) <= 1e-12 * mse
    assert report["counters"]["scale_ops_by_sample"] == [ops for _, _, ops in oracle]


def calibrate_both(float_model, samples, order="visual_first"):
    """The packed and the per-sample calibration, both with the LLM rows in
    order, or None for both when the batch has no visual row (the vision
    grids then have no data)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not any(layout.visual_count for _, layout in samples):
            with pytest.raises(ValueError, match="calibration stream is empty"):
                calibrate_pipeline(float_model, samples)
            with pytest.raises(ValueError, match="calibration stream is empty"):
                calibrate_per_sample(float_model, samples, order)
            return None
        return (
            calibrate_pipeline(float_model, samples),
            calibrate_per_sample(float_model, samples, order),
        )


# ===== packed members match their lone forwards =====

LENGTH = st.one_of(st.sampled_from([1, 2, 63, 64, 65, 130]), st.integers(1, 130))


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(LENGTH, min_size=1, max_size=6),
    kinds=st.lists(st.sampled_from(["mixed", "text", "visual"]), min_size=6, max_size=6),
    order=st.sampled_from(["visual_first", "natural"]),
    dynamic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_members_match_lone_forwards(
    float_model, qm, row_order, lengths, kinds, order, dynamic, seed
):
    rng = np.random.default_rng(seed)
    samples = [make_sample(rng, n, kind) for n, kind in zip(lengths, kinds)]
    rows, modality, lens = stack(samples)

    with row_order(order):
        packed_float = members(model_forward(float_model, rows, modality, lengths=lens), lens)
        packed_q = members(qm.forward(rows, modality, dynamic=dynamic, lengths=lens), lens)
        for (x, layout), got_f, got_q in zip(samples, packed_float, packed_q):
            assert_close(got_f, model_forward(float_model, x, layout.modality))
            assert_close(got_q, qm.forward(x, layout.modality, dynamic=dynamic))

        assert_report_matches(
            evaluate(qm, samples, dynamic=dynamic), evaluate_per_sample(qm, samples, dynamic)
        )
        both = calibrate_both(float_model, samples, order)
    if both is not None:
        assert_calibration_matches(*both)


def test_a_lone_forward_is_a_pack_of_one(float_model, qm):
    rows, layout = make_sample(np.random.default_rng(3), 40, "mixed")
    n = [40]
    assert np.array_equal(
        model_forward(float_model, rows, layout.modality, lengths=n),
        model_forward(float_model, rows, layout.modality),
    )
    for dynamic in (False, True):
        assert np.array_equal(
            qm.forward(rows, layout.modality, dynamic=dynamic, lengths=n),
            qm.forward(rows, layout.modality, dynamic=dynamic),
        )


def test_batches_beyond_one_pack_match_the_oracles(float_model, qm, monkeypatch):
    """A batch above PACK_ROWS splits into consecutive packs, and a sample
    longer than PACK_ROWS is a pack of its own; one quantized forward runs
    per pack."""
    rng = np.random.default_rng(11)
    lengths = [600, 400, 100, PACK_ROWS + 76, 30]
    samples = [make_sample(rng, n, "mixed") for n in lengths]
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
    assert_calibration_matches(*calibrate_both(float_model, samples))


def test_scale_ops_per_sample_follow_the_cost_contract(qm):
    """Static: 2 per LLM block for every member; dynamic: its rows per block."""
    rng = np.random.default_rng(5)
    samples = [make_sample(rng, n, "mixed") for n in (3, 17, 64)]
    blocks = len(qm.model.llm_blocks)
    static = evaluate(qm, samples)["counters"]
    dynamic = evaluate(qm, samples, dynamic=True)["counters"]
    assert static["scale_ops_by_sample"] == [2 * blocks] * 3
    assert dynamic["scale_ops_by_sample"] == [n * blocks for n in (3, 17, 64)]
    assert static["scale_ops_total"] == 6 * blocks
    assert dynamic["scale_ops_total"] == 84 * blocks


# ===== no member sees another =====


@pytest.mark.parametrize("order", ["visual_first", "natural"])
@pytest.mark.parametrize("kinds", [
    ("mixed", "mixed", "mixed", "mixed"),
    ("visual", "visual", "mixed", "visual"),
    ("text", "visual", "visual", "text"),
])
def test_changing_one_member_leaves_the_others_bitwise(float_model, qm, row_order, order, kinds):
    rng = np.random.default_rng(21)
    samples = [make_sample(rng, n, kind) for n, kind in zip((9, 70, 33, 65), kinds)]
    rows, modality, lens = stack(samples)
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
            with row_order(order):
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
def test_bad_lengths_are_rejected(float_model, qm, lengths, match):
    rows, layout = make_sample(np.random.default_rng(1), 40, "mixed")
    with pytest.raises(ValueError, match=match):
        model_forward(float_model, rows, layout.modality, lengths=lengths)
    with pytest.raises(ValueError, match=match):
        qm.forward(rows, layout.modality, lengths=lengths)


def test_sample_rows_must_match_their_layout(qm):
    """Packing would hide a sample whose rows and tags disagree by offsetting
    the next one, so each sample is checked before it is stacked."""
    rng = np.random.default_rng(2)
    a, b = make_sample(rng, 10, "mixed"), make_sample(rng, 9, "mixed")
    skewed = [
        (a[0], ModalityLayout(a[1].modality[:9])),
        (b[0], ModalityLayout(np.r_[b[1].modality, TEXT])),
    ]
    with pytest.raises(ValueError, match="sample 0 has 10 rows but its layout tags 9"):
        evaluate(qm, skewed)
    with pytest.raises(ValueError, match="sample width 8 != model d_model 16"):
        evaluate(qm, [a, (b[0][:, :8], b[1])])


# ===== one forward driver =====


@pytest.mark.parametrize("order", ["visual_first", "natural"])
def test_act_fn_sees_each_block_inputs_tags_in_run_order(float_model, row_order, order):
    """act_fn gets None in the vision blocks and, in the LLM blocks, the
    tags of x's rows in the order they run: the pack's visual rows as one
    prefix, or in the natural order the pack's own order."""
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

    with row_order(order):
        model_forward(float_model, rows, modality, act_fn, lengths)
    # visual-first across the pack: its tags sorted 1s first
    want = np.sort(modality)[::-1] if order == "visual_first" else modality
    assert sorted(seen) == ["llm.0.input", "llm.1.input", "vision.0.input"]
    assert seen["vision.0.input"] is None
    for name in ("llm.0.input", "llm.1.input"):
        assert np.array_equal(seen[name], want), name


@pytest.mark.parametrize("order", ["visual_first", "natural"])
def test_calibration_records_the_quantized_forwards_run_order(
    float_model, qm, row_order, order, monkeypatch
):
    """The tags calibration's recorder sees with each LLM block input are
    the row order the quantized forward's static grids see at that block."""
    samples = [make_sample(np.random.default_rng(i), n, "mixed") for i, n in enumerate((9, 14, 5))]
    rows, modality, lengths = stack(samples)
    recorded, applied = [], []
    model_forward_, quantize_msq_ = pipeline.model_forward, pipeline.quantize_msq

    def recording(model, rows, modality, recorder, *args):
        """The calibration forward, with the tags its recorder sees at
        each LLM block input written down."""

        def seen(name, x, tags):
            if tags is not None:
                recorded.append(tags)
            return recorder(name, x, tags)

        return model_forward_(model, rows, modality, seen, *args)

    def applying(x, visual_rows, *args):
        applied.append(visual_rows)
        return quantize_msq_(x, visual_rows, *args)

    with row_order(order):
        monkeypatch.setattr(pipeline, "model_forward", recording)
        pipeline.calibrate_pipeline(float_model, samples)
        monkeypatch.setattr(pipeline, "model_forward", model_forward_)
        monkeypatch.setattr(pipeline, "quantize_msq", applying)
        qm.forward(rows, modality, lengths=lengths)
    assert len(recorded) == len(applied) == float_model.config.llm_blocks
    for tags, visual_rows in zip(recorded, applied):
        assert np.array_equal(tags == VISUAL, visual_rows)
    # the samples are mixed, so visual-first is not the pack's own order
    assert np.array_equal(applied[0], modality == VISUAL) == (order == "natural")


# ===== the benchmark's tracer over packed calls =====


def load_spans():
    importlib.import_module("mquant.cli")  # the tracer wraps CLI commands too
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_runs_over_packed_evaluate_and_calibrate(float_model, qm):
    """`perfbench/run.py --trace 1` wraps every traced function; its
    quantities must still read the packed calls."""
    spans = load_spans()
    samples = generate_synthetic_samples(5, 12, seed=9, d_model=D)
    visual = sum(layout.visual_count for _, layout in samples)
    runs = (
        (lambda: calibrate_pipeline(float_model, samples), 1),
        # evaluate encodes the visual rows twice: float reference and quantized
        (lambda: evaluate(qm, samples), 2),
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
    stage_calibrate each build one vision and one LLM attention plan per
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
        lambda: pipeline.stage_calibrate(model, "", samples),
    ):
        builds.clear()
        run()
        assert sorted(builds) == [4 + 4 + 66, 12 + 12 + 70]
