import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant import msq_aifs, pipeline
from mquant.model import (
    ToyMllmConfig,
    build_toy_mllm,
    iter_linears,
    model_fingerprint,
    model_forward,
    model_to_dict,
)
from mquant.msq_aifs import TEXT, VISUAL, layout_from_string, quantize_msq
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
    new_state,
    qmodel_from_dict,
    qmodel_to_dict,
    stage_build_rms_plans,
    stage_calibrate,
    stage_quantize_llm_weights,
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


@pytest.mark.parametrize(
    "key, value",
    [
        ("rms", "false"),
        ("aifs", 1),
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


def test_config_rejects_removed_rotation_keys():
    """The sign-randomized rotation is gone; a config still asking for it
    is rejected with the key named, not silently run with plain H."""
    with pytest.raises(ValueError, match="randomized_rotation"):
        PipelineConfig.from_dict({"randomized_rotation": True})


def test_config_dict_keys_follow_fields():
    """One list of keys: the model's, then every quantization field in
    declaration order."""
    keys = list(PipelineConfig().to_dict())
    assert keys == list(ToyMllmConfig().to_dict()) + [
        "bits_w", "bits_a", "weight_granularity", "group_size",
        "symmetric_activations", "rms", "aifs", "split_bits",
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


def test_samples_length_one_is_text():
    samples = generate_synthetic_samples(3, 1, seed=0, d_model=4)
    for _, layout in samples:
        assert layout.visual_count == 0


# ===== stage guards =====


def test_quantize_before_rotation_fails(setup):
    pcfg, model, _ = setup
    state = new_state(model, pcfg)
    with pytest.raises(ValueError, match="stage order violation"):
        stage_quantize_llm_weights(state)


def test_calibrate_after_llm_weight_freeze_fails(setup):
    """Calibration must see the float LLM weights, so it refuses to run
    once they are frozen on their grids."""
    pcfg, model, samples = setup
    state = new_state(model, pcfg)
    stage_rotate_llm(state)
    stage_quantize_llm_weights(state)
    with pytest.raises(ValueError, match="stage order violation: .*float LLM weights"):
        stage_calibrate(state, samples)


def test_calibrate_after_vision_rewrite_fails(setup):
    pcfg, model, samples = setup
    state = new_state(model, pcfg)
    stage_rotate_llm(state)
    stage_vision_rewrite(state)
    with pytest.raises(ValueError, match="float vision"):
        stage_calibrate(state, samples)


def test_vision_rotation_requires_rewrite(setup):
    pcfg, model, _ = setup
    state = new_state(model, pcfg)
    stage_rotate_llm(state)
    with pytest.raises(ValueError, match="vision_rewrite"):
        stage_rotate_vision(state)


def test_split_plans_require_both_rotations(setup):
    pcfg, model, _ = setup
    state = new_state(model, pcfg)
    stage_rotate_llm(state)
    with pytest.raises(ValueError, match="rotate_vision"):
        stage_build_rms_plans(state)


def test_stage_cannot_run_twice(setup):
    pcfg, model, _ = setup
    state = new_state(model, pcfg)
    stage_rotate_llm(state)
    with pytest.raises(ValueError, match="already"):
        stage_rotate_llm(state)
    state2 = new_state(model, pcfg)
    stage_rotate_llm(state2)
    stage_vision_rewrite(state2)
    with pytest.raises(ValueError, match="already ran"):
        stage_vision_rewrite(state2)


def test_set_calibration_checks_fingerprint(setup):
    pcfg, model, samples = setup
    calib = calibrate_pipeline(model, samples, pcfg)
    other = build_toy_mllm(small_pcfg(seed=99).model)
    state = new_state(other, pcfg)
    stage_rotate_llm(state)
    with pytest.raises(ValueError, match="calibration was made for"):
        stage_set_calibration(state, calib)


def test_set_calibration_checks_settings(setup):
    pcfg, model, samples = setup
    calib = calibrate_pipeline(model, samples, pcfg)
    for override, field in (
        ({"bits_a": 4}, "bits_a"),
        ({"symmetric_activations": False}, "symmetric"),
    ):
        state = new_state(model, small_pcfg(**override))
        stage_rotate_llm(state)
        with pytest.raises(ValueError, match=field):
            stage_set_calibration(state, calib)


def test_set_calibration_checks_grid_counts(setup):
    pcfg, model, samples = setup
    calib = calibrate_pipeline(model, samples, pcfg)
    for key, part in (("msq", "llm"), ("vision_act", "vision")):
        short = replace(calib, **{key: getattr(calib, key)[:-1]})
        state = new_state(model, pcfg)
        stage_rotate_llm(state)
        with pytest.raises(ValueError, match=f"{key} grids for .* {part} blocks"):
            stage_set_calibration(state, short)


IDENTITY = st.fixed_dictionaries({
    "bits_a": st.sampled_from([4, 8]),
    "aifs": st.booleans(),
    "symmetric_activations": st.booleans(),
    "seed": st.sampled_from([0, 1]),
})

# What a rejection says for each identity field; the model seed shows up
# as a fingerprint mismatch.  aifs is no identity field: it moves rows, not
# values, so a calibration made in either order serves both.
REJECTION_NAMES = {
    "seed": "calibration was made for model",
    "bits_a": "bits_a=",
    "symmetric_activations": "symmetric=",
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
            made[key] = calibrate_pipeline(build_toy_mllm(pcfg.model), samples, pcfg)
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


def test_exactly_one_calibration_source(setup):
    pcfg, model, samples = setup
    with pytest.raises(ValueError, match="exactly one"):
        mquant_quantize(model, pcfg)
    calib = calibrate_pipeline(model, samples, pcfg)
    with pytest.raises(ValueError, match="exactly one"):
        mquant_quantize(model, pcfg, samples=samples, calib=calib)


# ===== end-to-end quality =====


def test_stage_log_order(setup):
    pcfg, model, samples = setup
    qm = mquant_quantize(model, pcfg, samples=samples)
    assert qm.stage_log == [
        "rotate_llm", "calibrate", "quantize_llm_weights", "vision_rewrite",
        "rotate_vision", "quantize_vision_weights", "build_rms_plans",
    ]


def test_lossless_stack_preserves_forward(setup):
    pcfg, model, samples = setup
    transformed = apply_lossless_stack(model, pcfg)
    for rows, layout in samples[:3]:
        a = model_forward(model, rows, layout.modality)
        b = model_forward(transformed, rows, layout.modality)
        np.testing.assert_allclose(b, a, atol=1e-5)


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
    assert "build_rms_plans" not in qm.stage_log
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


def test_aifs_off_matches_aifs_on(setup):
    pcfg, model, samples = setup
    r_on = evaluate(mquant_quantize(model, pcfg, samples=samples), samples)
    r_off = evaluate(
        mquant_quantize(model, small_pcfg(aifs=False), samples=samples), samples
    )
    assert abs(
        r_on["metrics"]["cosine_mean"] - r_off["metrics"]["cosine_mean"]
    ) < 1e-6


@pytest.mark.parametrize("bits_w", [8, 4])
def test_aifs_forward_is_bitwise_the_natural_order_forward(bits_w):
    """AIFS reorders the row-wise work, and attention gathers its rows
    back into position order, so AIFS outputs equal natural order's bit
    for bit, static and dynamic: one L=1024 sequence of 256 text then 768
    visual tokens, one mixed pack, and evaluate's per-sample reports."""
    model = build_toy_mllm(ToyMllmConfig())
    desk = generate_synthetic_samples(8, 16, seed=123)
    qms = [
        mquant_quantize(model, PipelineConfig(bits_w=bits_w, aifs=aifs), samples=desk)
        for aifs in (True, False)
    ]
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
        on, off = (qm.forward(rows, tags, dynamic=dynamic) for qm in qms)
        assert np.array_equal(on, off)
        on, off = (qm.forward(*pack, dynamic=dynamic, lengths=lengths) for qm in qms)
        assert np.array_equal(on, off)
        on, off = (evaluate(qm, mixed, dynamic=dynamic)["metrics"]["per_sample"] for qm in qms)
        assert on == off


def test_a_calibration_serves_either_row_order(setup):
    """A calibration made under AIFS is the one made in natural order, and
    each is accepted by a config with the other setting."""
    _, model, samples = setup
    calibs = {
        aifs: calibrate_pipeline(model, samples, small_pcfg(aifs=aifs)) for aifs in (True, False)
    }
    assert calibs[True].to_dict() == calibs[False].to_dict()
    for made, used in ((True, False), (False, True)):
        qm = mquant_quantize(model, small_pcfg(aifs=used), calib=calibs[made])
        assert qm.calib is calibs[made]


def test_a_calibration_file_that_still_holds_aifs_loads(setup):
    """Calibration files once recorded the AIFS setting; such a file still
    loads, to the same grids."""
    pcfg, model, samples = setup
    calib = calibrate_pipeline(model, samples, pcfg)
    old = CalibrationResult.from_dict(calib.to_dict() | {"aifs": pcfg.aifs})
    assert old.to_dict() == calib.to_dict()
    mquant_quantize(model, pcfg, calib=old)


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
    qm.model = apply_lossless_stack(qm.float_model, qm.pcfg)
    return qm


def test_passthrough_matches_transformed_float(setup, monkeypatch):
    pcfg, model, samples = setup
    qm = without_grids(mquant_quantize(model, pcfg, samples=samples), monkeypatch)
    rows, layout = samples[0]
    out = qm.forward(rows, layout.modality)
    ref = model_forward(qm.model, rows, layout.modality)
    np.testing.assert_allclose(out, ref, atol=1e-9)


def test_natural_order_passthrough_is_the_float_forward(setup, monkeypatch):
    """With AIFS off, the pass-through path runs model_forward's order and
    positions, so it reproduces it bit for bit."""
    pcfg, model, samples = setup
    qm = without_grids(
        mquant_quantize(model, small_pcfg(aifs=False, rms=False), samples=samples),
        monkeypatch,
    )
    for rows, layout in samples:
        out = qm.forward(rows, layout.modality)
        assert np.array_equal(out, model_forward(qm.model, rows, layout.modality))


@pytest.mark.parametrize("rms", [True, False])
def test_quantized_forward_is_the_forward_of_its_frozen_model(setup, rms):
    """qm.model is the model the quantized forward runs.  Each linear holds
    the same linear of the float transform stack fake-quantized on its
    weight_grids entry; a split down-projection first has row 0 zeroed when
    its plan triggers, and holds its plan's main_q.  Each split plan sits on
    its own block and on no other, and in natural order qm.forward is
    model_forward of qm.model with the static grids as act_fn, bit for bit."""
    pcfg, model, samples = setup
    qm = mquant_quantize(model, small_pcfg(aifs=False, rms=rms), samples=samples)
    blocks = {
        f"{part}.{i}.w_down": blk
        for part in ("vision", "llm")
        for i, blk in enumerate(getattr(qm.model, f"{part}_blocks"))
    }
    assert set(qm.plans) == (set(blocks) if rms else set())
    for name, blk in blocks.items():
        assert blk.split is qm.plans.get(name), name
    lossless = dict(iter_linears(apply_lossless_stack(qm.float_model, qm.pcfg)))
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
            return fake_quant(x, qm.calib.vision_act[idx])
        return quantize_msq(x, modality == VISUAL, qm.calib.msq[idx])

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


@pytest.mark.parametrize("aifs", [True, False])
def test_forward_builds_its_mask_with_one_rule_call(setup, monkeypatch, aifs):
    """The benchmark asserts that one forward calls permuted_mask_oracle
    exactly once, whatever the layout: the LLM plan builds its one sample's
    mask from positions, and the vision plan needs none."""
    _, model, samples = setup
    qm = mquant_quantize(model, small_pcfg(aifs=aifs), samples=samples)
    build = msq_aifs.permuted_mask_oracle
    calls = []

    def counted(perm, length):
        calls.append(length)
        return build(perm, length)

    monkeypatch.setattr(msq_aifs, "permuted_mask_oracle", counted)
    rows = samples[0][0]
    for spec in ("tttttttttt", "ttvvvvtttt", "tvvttvvvtt"):
        calls.clear()
        qm.forward(rows, layout_from_string(spec).modality)
        assert calls == [10], spec


@pytest.mark.parametrize("aifs", [True, False])
def test_packed_forward_builds_one_mask_per_sample(setup, monkeypatch, aifs):
    """A pack of B samples calls the mask rule once per sample, with that
    sample's length, and never for the whole pack."""
    _, model, samples = setup
    qm = mquant_quantize(model, small_pcfg(aifs=aifs), samples=samples)
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
    assert report["kind"] == "eval" and report["schema_version"] == 2
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


# ===== serialization =====


def test_calibration_roundtrip(setup):
    pcfg, model, samples = setup
    calib = calibrate_pipeline(model, samples, pcfg)
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
    d = calibrate_pipeline(model, samples, pcfg).to_dict()
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
    assert d["calibration"] == calibrate_pipeline(model, samples, pcfg).to_dict()


def test_qmodel_other_schema_version_rejected(setup):
    pcfg, model, samples = setup
    d = qmodel_to_dict(mquant_quantize(model, pcfg, samples=samples))
    d["schema_version"] = 1
    with pytest.raises(ValueError, match="schema_version"):
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
    have = d["config"][key]
    d["config"][key] = value
    with pytest.raises(
        ValueError, match=f"config {key}={value} disagrees with the model's {key}={have}"
    ):
        qmodel_from_dict(d)
