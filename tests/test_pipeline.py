import copy
import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant import fileio, lanes, msq_aifs, pipeline
from mquant.model import (
    ToyMllmConfig,
    build_toy_mllm,
    embed_tokens,
    iter_linears,
    llm_stack,
    model_fingerprint,
    model_forward,
    model_to_dict,
)
from mquant.msq_aifs import (
    TEXT,
    VISUAL,
    build_attention_plan,
    layout_from_string,
    quantize_msq,
)
from mquant.pipeline import (
    CalibrationResult,
    PipelineConfig,
    apply_lossless_stack,
    bench,
    calibrate_pipeline,
    cosine_and_mse,
    evaluate,
    generate_synthetic_samples,
    mquant_quantize,
    qmodel_from_dict,
    qmodel_to_dict,
    stage_rotate_llm,
    stage_rotate_vision,
    stage_set_calibration,
    stage_vision_rewrite,
)
from mquant.quantizer import Granularity, fake_quant, params_to_dict


def small_pcfg(**overrides):
    base = dict(d_model=16, n_heads=2, vision_blocks=1, llm_blocks=2, mlp_ratio=2)
    base.update(overrides)
    return PipelineConfig.from_dict(base)


@pytest.fixture(scope="module")
def setup():
    pcfg = small_pcfg()
    model = build_toy_mllm(pcfg.model)
    samples = generate_synthetic_samples(6, 10, seed=42, d_model=16)
    return pcfg, model, samples


# ===== config =====


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_dict({"bits_w": 8, "bogus": 1})


def test_config_validates_values():
    with pytest.raises(ValueError, match="bits_w"):
        PipelineConfig(bits_w=7)
    with pytest.raises(ValueError, match="granularity"):
        PipelineConfig(weight_granularity="per_row")
    with pytest.raises(ValueError, match="split_bits"):
        PipelineConfig(split_bits=5)
    with pytest.raises(ValueError, match="group_size"):
        PipelineConfig(group_size=0)


def test_config_refuses_split_bits_without_rms(setup):
    """split_bits sets the grid of a split row, which rms=false never
    builds: a config or a stored qmodel asking for both is refused, naming
    both keys, instead of echoing a setting nothing reads."""
    message = "split_bits=16 needs rms: with rms=false no split plan is built"
    with pytest.raises(ValueError, match=message):
        PipelineConfig(rms=False, split_bits=16)
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, replace(pcfg, rms=False), samples=samples))
    d["config"]["split_bits"] = 16
    with pytest.raises(ValueError, match=message):
        qmodel_from_dict(d)


@pytest.mark.parametrize(
    "key, value",
    [
        ("rms", "false"),
        ("rms", 1),
        ("symmetric_activations", "no"),
        ("seed", "0"),
        ("group_size", "8"),
        ("bits_w", True),
        ("n_heads", 4.0),
        ("d_model", np.float64(16)),
        ("split_bits", "8"),
        ("weight_granularity", 1),
        ("vision_weight_mean_bias", "0.02"),
        ("vision_weight_mean_bias", True),
    ],
)
def test_config_rejects_values_of_the_wrong_type(key, value):
    with pytest.raises(ValueError, match=f"config key '{key}' must be"):
        PipelineConfig.from_dict({key: value})


def test_config_stores_numpy_scalars_as_python_values():
    pcfg = small_pcfg(seed=np.int64(3), group_size=np.int32(8), split_bits=None,
                      vision_weight_mean_bias=np.float32(0.5))
    d = pcfg.to_dict()
    assert (d["seed"], d["group_size"], d["vision_weight_mean_bias"]) == (3, 8, 0.5)
    assert type(d["seed"]) is int and type(d["vision_weight_mean_bias"]) is float
    assert d["split_bits"] is None
    json.dumps(d)


def test_config_roundtrip():
    pcfg = small_pcfg(bits_w=4, rms=False, group_size=32)
    again = PipelineConfig.from_dict(pcfg.to_dict())
    assert again.to_dict() == pcfg.to_dict()


@pytest.mark.parametrize("key", ["randomized_rotation", "aifs"])
def test_config_rejects_removed_rotation_keys(setup, key):
    """The sign-randomized rotation is gone, and so is the aifs switch:
    the LLM rows always run visual-first.  A config or qmodel still asking
    for either is rejected with the key named, not silently run without."""
    with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
        PipelineConfig.from_dict({key: True})
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, pcfg, samples=samples))
    d["config"][key] = True
    with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
        qmodel_from_dict(d)


def test_config_dict_keys_follow_fields():
    """One list of keys: the model's, then every quantization field in
    declaration order."""
    keys = list(PipelineConfig().to_dict())
    assert keys == list(ToyMllmConfig().to_dict()) + [
        "bits_w", "bits_a", "weight_granularity", "group_size",
        "symmetric_activations", "rms", "split_bits",
    ]


# ===== synthetic samples =====


def test_samples_magnitude_split():
    samples = generate_synthetic_samples(10, 12, seed=0, d_model=8)
    for rows, layout in samples:
        vis = rows[layout.modality == VISUAL]
        txt = rows[layout.modality == 0]
        assert vis.min() >= -20.0 and vis.max() <= 10.0
        assert txt.min() >= -0.5 and txt.max() <= 0.5
        assert vis.shape[0] > 0 and txt.shape[0] > 0  # both modalities present


def test_samples_deterministic_by_seed():
    a = generate_synthetic_samples(3, 8, seed=5, d_model=4)
    b = generate_synthetic_samples(3, 8, seed=5, d_model=4)
    for (xa, la), (xb, lb) in zip(a, b):
        assert np.array_equal(xa, xb)
        assert np.array_equal(la.modality, lb.modality)


def test_samples_fixed_layout():
    samples = generate_synthetic_samples(2, 4, layout_spec="tvvt", seed=0, d_model=4)
    for _, layout in samples:
        np.testing.assert_array_equal(layout.modality, [0, 1, 1, 0])
    with pytest.raises(ValueError, match="layout length"):
        generate_synthetic_samples(1, 5, layout_spec="tv", d_model=4)


@pytest.mark.parametrize("d_model", [0, -5])
def test_samples_need_a_positive_width(d_model):
    """d_model=0 made zero-width samples and -5 a numpy error naming no
    field."""
    with pytest.raises(ValueError, match=f"^d_model must be >= 1, got {d_model}$"):
        generate_synthetic_samples(2, 4, seed=0, d_model=d_model)


def test_samples_length_one_is_text():
    samples = generate_synthetic_samples(3, 1, seed=0, d_model=4)
    for _, layout in samples:
        assert layout.visual_count == 0


# ===== stage guards =====


def test_vision_rotation_requires_rewrite(setup):
    """The vision rotation commutes with RMS norms only, so it refuses a
    vision part that still holds LayerNorm; after the rewrite it runs."""
    _, model, _ = setup
    work = copy.deepcopy(model)
    stage_rotate_llm(work)
    with pytest.raises(ValueError, match="vision part still contains LayerNorm"):
        stage_rotate_vision(work)
    stage_vision_rewrite(work)
    snapshots = stage_rotate_vision(work)
    assert all(blk.online_fht for blk in work.vision_blocks)
    assert set(snapshots) == {"vision.0.w_down"}


def test_stage_cannot_run_twice(setup):
    """A second LLM rotation would rotate rotated weights; it refuses."""
    _, model, _ = setup
    work = copy.deepcopy(model)
    stage_rotate_llm(work)
    with pytest.raises(ValueError, match="llm part is already rotated"):
        stage_rotate_llm(work)


def test_set_calibration_checks_fingerprint(setup):
    _, model, samples = setup
    calib = calibrate_pipeline(model, samples)
    other = build_toy_mllm(small_pcfg(seed=99).model)
    with pytest.raises(ValueError, match="calibration was made for"):
        stage_set_calibration(other, calib)


def test_set_calibration_checks_grid_counts(setup):
    """A calibration missing a point of the model, or holding one the
    model does not have, is refused, with the point named."""
    _, model, samples = setup
    calib = calibrate_pipeline(model, samples)
    moved = {"vision.0.input": "vision.1.input", "llm.1.input": "llm.2.input"}
    for old, new in moved.items():
        points = dict(calib.points)
        points[new] = points.pop(old)
        with pytest.raises(ValueError, match=rf"missing \['{old}'\], extra \['{new}'\]"):
            stage_set_calibration(model, replace(calib, points=points))


IDENTITY = st.fixed_dictionaries({
    "bits_a": st.sampled_from([4, 8]),
    "symmetric_activations": st.booleans(),
    "seed": st.sampled_from([0, 1]),
})

# What a rejection says for each identity field; the model seed shows up
# as a fingerprint mismatch.  bits_a and symmetric_activations are no
# identity fields: a calibration holds ranges, and the grids are derived
# from them at the config's settings.
REJECTION_NAMES = {
    "seed": "calibration was made for model",
}

@pytest.fixture(scope="module")
def calibrations():
    """Calibration for an identity, made on first use and kept for the module."""
    made = {}
    samples = generate_synthetic_samples(2, 6, seed=3, d_model=16)

    def get(identity):
        key = tuple(sorted(identity.items()))
        if key not in made:
            pcfg = small_pcfg(llm_blocks=1, **identity)
            made[key] = calibrate_pipeline(build_toy_mllm(pcfg.model), samples)
        return made[key]

    return get


@settings(max_examples=40, deadline=None)
@given(made_with=IDENTITY, used_with=IDENTITY)
def test_calibration_is_accepted_iff_its_identity_matches(
    calibrations, made_with, used_with
):
    calib = calibrations(made_with)
    pcfg = small_pcfg(llm_blocks=1, **used_with)
    model = build_toy_mllm(pcfg.model)
    differing = [k for k in REJECTION_NAMES if made_with[k] != used_with[k]]
    if not differing:
        assert mquant_quantize(model, pcfg, calib=calib).calib is calib
        return
    with pytest.raises(ValueError) as err:
        mquant_quantize(model, pcfg, calib=calib)
    assert any(REJECTION_NAMES[k] in str(err.value) for k in differing)


SETTING = st.fixed_dictionaries({
    "bits_a": st.sampled_from([4, 8]),
    "symmetric_activations": st.booleans(),
})


def activation_grids(qm) -> list:
    return [params_to_dict(p) for p in qm.vision_act] + [
        params_to_dict(grid) for m in qm.msq for grid in (m.visual, m.text)
    ]


@settings(max_examples=8, deadline=None)
@given(used_with=SETTING)
def test_one_calibration_serves_every_activation_setting(setup, used_with):
    """A calibration takes no activation setting: it is the one made inside
    quantize at any bits_a and symmetry, and the grids a config derives
    from it are, bit for bit, those of that config's own calibration."""
    _, model, samples = setup
    calib = calibrate_pipeline(model, samples)
    pcfg = small_pcfg(**used_with)
    own = mquant_quantize(model, pcfg, samples=samples)
    assert calib.to_dict() == own.calib.to_dict()
    served = mquant_quantize(model, pcfg, calib=calib)
    assert activation_grids(served) == activation_grids(own)
    for grid in (served.vision_act[0], served.msq[0].text):
        assert (grid.bits, grid.symmetric) == (pcfg.bits_a, pcfg.symmetric_activations)


def test_calibration_memory_does_not_grow_with_the_pack_count():
    """Calibration folds each block input into its point's ranges as it is
    made, so it holds one pack at a time: on the default model its
    tracemalloc peak over 128 samples of 64 rows (8 packs) is within 1 MiB
    of its peak over 16 (one pack)."""
    pcfg = PipelineConfig()
    model = build_toy_mllm(pcfg.model)
    peaks = []
    for count in (16, 128):
        samples = generate_synthetic_samples(count, 64, seed=7)
        tracemalloc.start()
        try:
            calibrate_pipeline(model, samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20, peaks


@pytest.mark.parametrize("count, length", [(6, 10), (40, 64)])
def test_calibration_does_not_depend_on_the_sample_order(count, length):
    """The samples reversed, packed differently, give the same file."""
    pcfg = small_pcfg()
    model = build_toy_mllm(pcfg.model)
    samples = generate_synthetic_samples(count, length, seed=5, d_model=16)
    files = [
        json.dumps(calibrate_pipeline(model, order).to_dict(), sort_keys=True)
        for order in (samples, samples[::-1])
    ]
    assert files[0] == files[1]


def test_a_modality_no_sample_holds_warns_once_at_calibration(setup):
    """All-visual samples hold no text row: calibration warns once and
    stores no text range, every text grid is the unit-scale sentinel, and
    loading the qmodel does not warn again."""
    pcfg, model, _ = setup
    samples = generate_synthetic_samples(3, 6, layout_spec="vvvvvv", seed=1, d_model=16)
    with pytest.warns(UserWarning, match="no text tokens") as caught:
        qm = mquant_quantize(model, pcfg, samples=samples)
    assert len(caught) == 1
    assert all("text" not in ranges for ranges in qm.calib.points.values())
    assert all(m.text.scales[0] == 1.0 for m in qm.msq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qmodel_from_dict(json.loads(json.dumps(qmodel_to_dict(qm))))


def test_exactly_one_calibration_source(setup):
    pcfg, model, samples = setup
    with pytest.raises(ValueError, match="exactly one"):
        mquant_quantize(model, pcfg)
    calib = calibrate_pipeline(model, samples)
    with pytest.raises(ValueError, match="exactly one"):
        mquant_quantize(model, pcfg, samples=samples, calib=calib)


# ===== end-to-end quality =====


def test_stage_log_order(setup):
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    assert qm.stages == [
        "rotate_llm", "calibrate", "quantize_llm_weights", "vision_rewrite",
        "rotate_vision", "quantize_vision_weights", "build_rms_plans",
    ]


def test_lossless_stack_preserves_forward(setup):
    _, model, samples = setup
    transformed = apply_lossless_stack(model)
    for rows, layout in samples[:3]:
        a = model_forward(model, rows, layout.modality)
        b = model_forward(transformed, rows, layout.modality)
        np.testing.assert_allclose(b, a, atol=1e-5)


COMPOSERS = {
    "mquant_quantize": lambda model, pcfg, samples: mquant_quantize(model, pcfg, samples=samples),
    "calibrate_pipeline": lambda model, pcfg, samples: calibrate_pipeline(model, samples),
    "apply_lossless_stack": lambda model, pcfg, samples: apply_lossless_stack(model),
}


@pytest.mark.parametrize("composer", sorted(COMPOSERS))
def test_composers_leave_their_float_model_unchanged(setup, composer):
    """Each composer runs its stages on its own copy: the float model it is
    given keeps every array, norm, flag and its fingerprint bit for bit
    (model_to_dict holds them all, and refuses a block with a split plan)."""
    pcfg, _, samples = setup
    model = build_toy_mllm(pcfg.model)
    before = model_to_dict(model)
    COMPOSERS[composer](model, pcfg, samples)
    assert model_to_dict(model) == before


def test_qmodel_load_leaves_its_float_model_as_stored(setup):
    """qmodel_from_dict re-runs the pipeline on a copy of the float model
    it reads: the loaded float model is the stored section bit for bit,
    with the fingerprint its calibration names."""
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, pcfg, samples=samples))
    loaded = qmodel_from_dict(json.loads(json.dumps(d)))
    assert model_to_dict(loaded.float_model) == d["float_model"] | {
        "fingerprint": d["calibration"]["fingerprint"]
    }


def test_w16a16_is_near_exact(setup):
    _, model, samples = setup
    pcfg = small_pcfg(bits_w=16, bits_a=16)
    qm = mquant_quantize(model, pcfg, samples=samples)
    report = evaluate(qm, samples)
    assert report["metrics"]["cosine_min"] > 0.9999


def test_w8a8_beats_w4a8(setup):
    pcfg, model, samples = setup
    r8 = evaluate(mquant_quantize(model, pcfg, samples=samples), samples)
    r4 = evaluate(
        mquant_quantize(model, small_pcfg(bits_w=4), samples=samples), samples
    )
    assert r8["metrics"]["cosine_mean"] > r4["metrics"]["cosine_mean"]


def test_vision_triggers_llm_does_not(setup):
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    table = evaluate(qm, samples)["rms_compliance"]
    assert table["vision"]["ratio"] == 1.0
    assert table["llm"]["ratio"] == 0.0


def test_rms_off_builds_no_plans(setup):
    _, model, samples = setup
    qm = mquant_quantize(model, small_pcfg(rms=False), samples=samples)
    assert qm.plans == {}
    assert "build_rms_plans" not in qm.stages
    # down-projections are then quantized like every other weight
    assert "llm.0.w_down" in qm.weight_grids and "vision.0.w_down" in qm.weight_grids


def test_split_plans_take_the_configured_weight_grid(setup):
    """A down-projection's main kernel is quantized like every other
    linear: per group of group_size inputs when the config says per_group,
    for the LLM plans that never split as for the vision plans that do."""
    _, model, samples = setup
    qm = mquant_quantize(
        model, small_pcfg(weight_granularity="per_group", group_size=8), samples=samples
    )
    assert set(qm.plans) == {"vision.0.w_down", "llm.0.w_down", "llm.1.w_down"}
    for name, plan in qm.plans.items():
        assert plan.main_params.granularity is Granularity.PER_GROUP, name
        assert plan.main_params.group_size == 8, name
        assert plan.main_params.scales.shape == (16, 32 // 8), name
    for name, params in qm.weight_grids.items():
        assert params.granularity is Granularity.PER_GROUP, name
        assert params.group_size == 8, name


def test_natural_order_evaluate_matches_visual_first(setup, row_order):
    pcfg, model, samples = setup
    r_on = evaluate(mquant_quantize(model, pcfg, samples=samples), samples)
    with row_order("natural"):
        r_off = evaluate(mquant_quantize(model, pcfg, samples=samples), samples)
    assert abs(
        r_on["metrics"]["cosine_mean"] - r_off["metrics"]["cosine_mean"]
    ) < 1e-6


@pytest.mark.parametrize("bits_w", [8, 4])
def test_aifs_forward_is_bitwise_the_natural_order_forward(row_order, bits_w):
    """AIFS reorders the row-wise work, and attention gathers its rows
    back into position order, so AIFS outputs equal natural order's bit
    for bit, static and dynamic: one L=1024 sequence of 256 text then 768
    visual tokens, one mixed pack, and evaluate's per-sample reports.  In
    natural order, calibration runs in it too."""
    model = build_toy_mllm(ToyMllmConfig())
    desk = generate_synthetic_samples(8, 16, seed=123)
    orders = ("visual_first", "natural")
    qms = {}
    for order in orders:
        with row_order(order):
            qms[order] = mquant_quantize(model, PipelineConfig(bits_w=bits_w), samples=desk)

    def both(run):
        """run(qm) in each order, on the quantized model made in it."""
        outs = []
        for order in orders:
            with row_order(order):
                outs.append(run(qms[order]))
        return outs

    rng = np.random.default_rng(5)
    tags = np.repeat([TEXT, VISUAL], [256, 768])
    rows = rng.uniform(-0.5, 0.5, size=(1024, 64))
    rows[256:] = rng.uniform(-20.0, 10.0, size=(768, 64))
    mixed = [
        generate_synthetic_samples(1, n, seed=40 + i)[0]
        for i, n in enumerate((16, 32, 64, 300, 17, 5))
    ]
    pack = (
        np.vstack([r for r, _ in mixed]),
        np.concatenate([layout.modality for _, layout in mixed]),
    )
    lengths = [len(layout) for _, layout in mixed]
    for dynamic in (False, True):
        on, off = both(lambda qm: qm.forward(rows, tags, dynamic=dynamic))
        assert np.array_equal(on, off)
        on, off = both(lambda qm: qm.forward(*pack, dynamic=dynamic, lengths=lengths))
        assert np.array_equal(on, off)
        on, off = both(lambda qm: evaluate(qm, mixed, dynamic=dynamic)["metrics"]["per_sample"])
        assert on == off


def test_a_calibration_serves_either_row_order(setup, row_order):
    """A calibration made under AIFS is the one made in natural order, and
    a quantized model built from either runs in the other, bit for bit as
    from its own."""
    pcfg, model, samples = setup
    orders = ("visual_first", "natural")
    calibs = {}
    for order in orders:
        with row_order(order):
            calibs[order] = calibrate_pipeline(model, samples)
    assert calibs["visual_first"].to_dict() == calibs["natural"].to_dict()
    rows = np.vstack([r for r, _ in samples])
    modality = np.concatenate([layout.modality for _, layout in samples])
    lengths = [len(layout) for _, layout in samples]
    for made, used in zip(orders, orders[::-1]):
        with row_order(used):
            qm = mquant_quantize(model, pcfg, calib=calibs[made])
            own = mquant_quantize(model, pcfg, calib=calibs[used])
            assert qm.calib is calibs[made]
            assert np.array_equal(
                qm.forward(rows, modality, lengths=lengths),
                own.forward(rows, modality, lengths=lengths),
            )


def test_per_group_granularity_runs(setup):
    _, model, samples = setup
    pcfg = small_pcfg(weight_granularity="per_group", group_size=8)
    qm = mquant_quantize(model, pcfg, samples=samples)
    report = evaluate(qm, samples)
    assert report["metrics"]["cosine_mean"] > 0.9
    some = qm.weight_grids["llm.0.wq"]
    assert some.granularity.value == "per_group" and some.group_size == 8


def test_counters_exact(setup):
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    blocks = len(qm.model.llm_blocks)
    for length in (1, 5, 32):
        rows, layout = generate_synthetic_samples(1, length, seed=length, d_model=16)[0]
        qm.forward(rows, layout.modality)
        assert qm.counter.scale_ops == 2 * blocks
        qm.forward(rows, layout.modality, dynamic=True)
        assert qm.counter.scale_ops == length * blocks


def without_grids(qm, monkeypatch):
    """qm with identity activation grids, float weights and no split plans,
    so its forward runs the transformed float model in its own order."""
    monkeypatch.setattr(pipeline, "quantize_msq", lambda x, rows, params, counter: x)
    monkeypatch.setattr(pipeline, "fake_quant", lambda x, params: x)
    qm.model = apply_lossless_stack(qm.float_model)
    return qm


def test_passthrough_matches_transformed_float(setup, monkeypatch):
    pcfg, model, samples = setup
    qm = without_grids(mquant_quantize(model, pcfg, samples=samples), monkeypatch)
    rows, layout = samples[0]
    out = qm.forward(rows, layout.modality)
    ref = model_forward(qm.model, rows, layout.modality)
    np.testing.assert_allclose(out, ref, atol=1e-9)


def natural_float_forward(model, rows, tags):
    """The float forward with the LLM rows in their natural order, from
    model_forward's parts: embed_tokens, the natural plan, llm_stack."""
    x, tags, lengths = embed_tokens(model, rows, tags)
    positions = np.arange(lengths[0])
    return llm_stack(model, x, build_attention_plan(lengths, positions), positions, tags)


def test_natural_order_passthrough_is_the_float_forward(setup, monkeypatch):
    """The pass-through path runs visual-first, and attention in position
    order, so it reproduces the natural-order float forward bit for bit."""
    _, model, samples = setup
    qm = without_grids(
        mquant_quantize(model, small_pcfg(rms=False), samples=samples), monkeypatch
    )
    for rows, layout in samples:
        out = qm.forward(rows, layout.modality)
        assert np.array_equal(out, natural_float_forward(qm.model, rows, layout.modality))


@pytest.mark.parametrize("rms", [True, False])
def test_quantized_forward_is_the_forward_of_its_frozen_model(setup, rms):
    """qm.model is the model the quantized forward runs.  Each linear holds
    the same linear of the float transform stack fake-quantized on its
    weight_grids entry; a split down-projection first has row 0 zeroed when
    its plan triggers, and holds its plan's main_q.  Each split plan sits on
    its own block and on no other, and qm.forward is model_forward of
    qm.model with the static grids as act_fn, bit for bit."""
    _, model, samples = setup
    qm = mquant_quantize(model, small_pcfg(rms=rms), samples=samples)
    blocks = {
        f"{part}.{i}.w_down": blk
        for part in ("vision", "llm")
        for i, blk in enumerate(getattr(qm.model, f"{part}_blocks"))
    }
    assert set(qm.plans) == (set(blocks) if rms else set())
    for name, blk in blocks.items():
        assert blk.split is qm.plans.get(name), name
    lossless = dict(iter_linears(apply_lossless_stack(qm.float_model)))
    for name, lin in iter_linears(qm.model):
        w = lossless[name].w.copy()
        plan = qm.plans.get(name)
        if plan is not None:
            assert lin.w is plan.main_q, name
            if plan.triggered:
                w[0] = 0.0
        want = fake_quant(w.T, qm.weight_grids[name]).T
        assert lin.w.shape == want.shape
        assert lin.w.tobytes() == np.ascontiguousarray(want).tobytes(), name

    rows = np.vstack([r for r, _ in samples])
    modality = np.concatenate([layout.modality for _, layout in samples])
    lengths = [len(layout) for _, layout in samples]

    def act_fn(name, x, tags):
        part, idx = name.split(".")[0], int(name.split(".")[1])
        if part == "vision":
            return fake_quant(x, qm.vision_act[idx])
        return quantize_msq(x, tags == VISUAL, qm.msq[idx])

    want = model_forward(qm.model, rows, modality, act_fn, lengths)
    assert qm.forward(rows, modality, lengths=lengths).tobytes() == want.tobytes()


@pytest.mark.parametrize("rms", [True, False])
def test_every_linear_has_one_weight_grid_in_the_report(rms):
    """weight_grids and the report's per_layer name every linear of the
    default model, 28 of 28; a split down-projection's grid is its plan's
    main kernel grid."""
    samples = generate_synthetic_samples(8, 16, seed=123)
    pcfg = PipelineConfig(model=ToyMllmConfig(), rms=rms)
    qm = mquant_quantize(build_toy_mllm(pcfg.model), pcfg, samples=samples)
    names = sorted(name for name, _ in iter_linears(qm.model))
    assert len(names) == 28
    assert sorted(qm.weight_grids) == names
    per_layer = evaluate(qm, samples[:1])["per_layer"]
    assert sorted(per_layer) == names
    assert len(qm.plans) == (4 if rms else 0)
    for name, plan in qm.plans.items():
        assert qm.weight_grids[name] is plan.main_params, name
        assert per_layer[name] == params_to_dict(plan.main_params), name


def test_model_file_refuses_a_model_holding_split_plans():
    """A model file has no place for Block.split, so writing the frozen
    model of a quantized one would load as a model without its plans: it
    is refused, naming the first block that holds one.  The desk model
    splits both vision down-projections."""
    samples = generate_synthetic_samples(8, 16, seed=123)
    pcfg = PipelineConfig(model=ToyMllmConfig())
    qm = mquant_quantize(build_toy_mllm(pcfg.model), pcfg, samples=samples)
    assert qm.model.vision_blocks[0].split is not None
    with pytest.raises(ValueError, match=r"block vision\.0 holds a split plan"):
        model_to_dict(qm.model)
    assert model_to_dict(qm.float_model)["fingerprint"] == model_fingerprint(qm.float_model)


@pytest.mark.parametrize("order", ["visual_first", "natural"])
def test_forward_builds_its_mask_with_one_rule_call(setup, monkeypatch, row_order, order):
    """The benchmark asserts that one forward calls permuted_mask_oracle
    exactly once, whatever the layout: the LLM plan builds its one sample's
    mask from positions, and the vision plan needs none."""
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    build = msq_aifs.permuted_mask_oracle
    calls = []

    def counted(perm, length):
        calls.append(length)
        return build(perm, length)

    monkeypatch.setattr(msq_aifs, "permuted_mask_oracle", counted)
    rows = samples[0][0]
    for spec in ("tttttttttt", "ttvvvvtttt", "tvvttvvvtt"):
        calls.clear()
        with row_order(order):
            qm.forward(rows, layout_from_string(spec).modality)
        assert calls == [10], spec


@pytest.mark.parametrize("order", ["visual_first", "natural"])
def test_packed_forward_builds_one_mask_per_sample(setup, monkeypatch, row_order, order):
    """A pack of B samples calls the mask rule once per sample, with that
    sample's length, and never for the whole pack."""
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    build = msq_aifs.permuted_mask_oracle
    calls = []

    def counted(perm, length):
        calls.append(length)
        return build(perm, length)

    monkeypatch.setattr(msq_aifs, "permuted_mask_oracle", counted)
    specs = ("tvvt", "v", "tttttt", "vvtvvvtt", "vvv")
    rows = np.vstack([samples[0][0][: len(spec)] for spec in specs])
    modality = np.concatenate([layout_from_string(spec).modality for spec in specs])
    lengths = [len(spec) for spec in specs]
    for dynamic in (False, True):
        calls.clear()
        with row_order(order):
            qm.forward(rows, modality, dynamic=dynamic, lengths=lengths)
        assert calls == lengths


# ===== evaluate / bench =====


def test_cosine_short_circuit():
    a = np.random.default_rng(0).normal(size=(3, 4))
    assert cosine_and_mse(a, a) == (1.0, 0.0)
    assert cosine_and_mse(np.zeros((2, 2)), np.zeros((2, 2))) == (1.0, 0.0)
    cos, mse = cosine_and_mse(a, np.zeros_like(a))
    assert cos == 0.0 and mse > 0


def test_evaluate_report_contents(setup):
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    report = evaluate(qm, samples)
    assert report["kind"] == "eval" and report["schema_version"] == 3
    assert "rtn" in report["weight_solver"]
    assert report["config"] == pcfg.to_dict()
    assert report["activation_mode"] == "static_msq"
    assert len(report["metrics"]["per_sample"]) == len(samples)
    assert len(report["activations"]["msq"]) == 2  # one per llm block
    # every quantized layer shows its grid
    assert "llm.0.wq" in report["per_layer"]


def test_evaluate_is_deterministic(setup):
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    a = json.dumps(evaluate(qm, samples), sort_keys=True)
    qm2 = mquant_quantize(model, pcfg, samples=samples)
    b = json.dumps(evaluate(qm2, samples), sort_keys=True)
    assert a == b


def test_bench_scale_op_columns(setup):
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    report = bench(qm, [1, 4, 16], seed=0)
    blocks = len(qm.model.llm_blocks)
    for entry in report["entries"]:
        assert entry["static"]["scale_ops"] == 2 * blocks
        assert entry["dynamic"]["scale_ops"] == entry["length"] * blocks
        assert entry["static"]["seconds"] >= 0.0
    assert "informational" in report["note"]
    # what the seconds ran on
    assert report["lanes"] == {
        "count": lanes.LANES,
        "blas_hold_found": lanes._openblas_threads() is not None,
    }
    assert report["lanes"]["count"] in (1, 2)
    assert isinstance(report["lanes"]["blas_hold_found"], bool)


# ===== serialization =====


def test_calibration_roundtrip(setup):
    pcfg, model, samples = setup
    calib = calibrate_pipeline(model, samples)
    assert calib.fingerprint == model_fingerprint(model)
    again = CalibrationResult.from_dict(json.loads(json.dumps(calib.to_dict())))
    qm = mquant_quantize(model, pcfg, calib=again)
    rows, layout = samples[0]
    ref = mquant_quantize(model, pcfg, samples=samples).forward(rows, layout.modality)
    assert np.array_equal(qm.forward(rows, layout.modality), ref)


def test_calibration_wrong_kind_rejected():
    with pytest.raises(ValueError, match="calibration file"):
        CalibrationResult.from_dict({"kind": "eval"})


def test_calibration_other_schema_version_rejected(setup):
    pcfg, model, samples = setup
    d = calibrate_pipeline(model, samples).to_dict()
    d["schema_version"] = 999
    with pytest.raises(ValueError, match="schema_version"):
        CalibrationResult.from_dict(d)


def test_qmodel_roundtrip_bit_exact(setup):
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    blob = json.dumps(qmodel_to_dict(qm), sort_keys=True)
    qm2 = qmodel_from_dict(json.loads(blob))
    rows, layout = samples[1]
    assert np.array_equal(
        qm.forward(rows, layout.modality), qm2.forward(rows, layout.modality)
    )
    # serializing again produces the same bytes
    assert json.dumps(qmodel_to_dict(qm2), sort_keys=True) == blob


def test_qmodel_wrong_kind_rejected():
    with pytest.raises(ValueError, match="quantized model"):
        qmodel_from_dict({"kind": "calibration"})


def test_qmodel_stores_config_float_model_and_calibration_only(setup):
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, pcfg, samples=samples))
    assert set(d) == {"schema_version", "kind", "config", "float_model", "calibration"}
    assert d["calibration"] == calibrate_pipeline(model, samples).to_dict()


def test_qmodel_config_holds_the_quantization_keys_only(setup):
    """The model keys are stored once, in the float model's config.  A file
    written while the config repeated them still loads, to the same
    quantized model."""
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    d = qmodel_to_dict(qm)
    assert list(d["config"]) == PipelineConfig._quant_keys()
    older = json.loads(json.dumps(d))
    older["config"] = d["float_model"]["config"] | d["config"]
    assert older["config"] == pcfg.to_dict()
    loaded = qmodel_from_dict(older)
    assert loaded.pcfg == qm.pcfg
    rows, layout = samples[1]
    assert np.array_equal(loaded.forward(rows, layout.modality), qm.forward(rows, layout.modality))


def test_qmodel_other_schema_version_rejected(setup):
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, pcfg, samples=samples))
    d["schema_version"] = 1
    with pytest.raises(ValueError, match="schema_version"):
        qmodel_from_dict(d)


def test_qmodel_stores_the_float_models_fingerprint_once(setup):
    """The calibration names the float model; the float model section holds
    no second copy of that fingerprint.  A file written while it did still
    loads to the same model, and its copy is still checked."""
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    d = qmodel_to_dict(qm)
    assert "fingerprint" not in d["float_model"]
    assert d["calibration"]["fingerprint"] == model_fingerprint(model)
    older = json.loads(json.dumps(d))
    older["float_model"]["fingerprint"] = model_fingerprint(model)
    rows, layout = samples[1]
    loaded = qmodel_from_dict(older).forward(rows, layout.modality)
    assert np.array_equal(loaded, qm.forward(rows, layout.modality))
    older["float_model"]["fingerprint"] = "0" * 16
    with pytest.raises(ValueError, match="model file fingerprint 0{16} does not match"):
        qmodel_from_dict(older)


def test_qmodel_with_a_tampered_float_weight_fails_on_load(setup):
    """Without its own fingerprint, a float model section whose weight was
    edited is caught by the calibration's fingerprint."""
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, pcfg, samples=samples))
    tensors = d["float_model"]["tensors"]
    w = fileio.tensor_from_b64(tensors["llm.0.wq.w"])
    w[3, 2] += 1e-3
    tensors["llm.0.wq.w"] = fileio.tensor_to_b64(w)
    with pytest.raises(ValueError, match="calibration was made for model"):
        qmodel_from_dict(d)


def test_qmodel_with_swapped_float_model_fails_on_load(setup):
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, pcfg, samples=samples))
    d["float_model"] = model_to_dict(build_toy_mllm(small_pcfg(seed=99).model))
    # the config echoes the swapped model, so only the calibration disagrees
    d["config"]["seed"] = 99
    with pytest.raises(ValueError, match="calibration was made for"):
        qmodel_from_dict(d)


@pytest.mark.parametrize("key, value", [("seed", 5), ("n_heads", 4), ("d_model", 32)])
def test_qmodel_config_that_disagrees_with_its_float_model_fails_on_load(setup, key, value):
    """The config of a qmodel file describes the float model it stores; a
    model key that says otherwise is an error naming the key, not dropped."""
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, pcfg, samples=samples))
    have = d["float_model"]["config"][key]
    d["config"][key] = value
    with pytest.raises(
        ValueError, match=f"config {key}={value} disagrees with the model's {key}={have}"
    ):
        qmodel_from_dict(d)
