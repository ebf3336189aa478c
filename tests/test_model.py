import json

import numpy as np
import pytest
from scipy.special import erf

from mquant import lanes
from mquant.model import (
    GELU_CHUNK,
    ToyMllmConfig,
    build_toy_mllm,
    copy_model,
    embed_tokens,
    gelu,
    iter_linears,
    iter_norms,
    model_fingerprint,
    model_forward,
    model_from_dict,
    model_to_dict,
)


def small_config(**overrides):
    base = dict(d_model=16, n_heads=2, vision_blocks=1, llm_blocks=1, mlp_ratio=2)
    base.update(overrides)
    return ToyMllmConfig(**base)


def sample_input(rng, length=6, d=16):
    x = rng.uniform(-0.5, 0.5, (length, d))
    modality = rng.integers(0, 2, length)
    x[modality == 1] = rng.uniform(-20, 10, (int((modality == 1).sum()), d))
    return x, modality


def test_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        ToyMllmConfig(d_model=48)
    with pytest.raises(ValueError, match="divide"):
        ToyMllmConfig(d_model=64, n_heads=5)
    with pytest.raises(ValueError, match="even"):
        ToyMllmConfig(d_model=16, n_heads=16)  # head dim 1
    with pytest.raises(ValueError, match="at least one block"):
        ToyMllmConfig(llm_blocks=0)
    with pytest.raises(ValueError, match="mlp_ratio"):
        ToyMllmConfig(mlp_ratio=0)


def test_build_is_deterministic():
    a = build_toy_mllm(small_config(seed=7))
    b = build_toy_mllm(small_config(seed=7))
    assert model_fingerprint(a) == model_fingerprint(b)
    c = build_toy_mllm(small_config(seed=8))
    assert model_fingerprint(a) != model_fingerprint(c)


def test_vision_down_has_alternating_column_means():
    model = build_toy_mllm(small_config())
    w = model.vision_blocks[0].w_down.w
    means = w.mean(axis=0)
    assert np.all(means[0::2] > 0.01)
    assert np.all(means[1::2] < -0.01)


def test_llm_down_has_exactly_zero_column_means():
    model = build_toy_mllm(small_config())
    w = model.llm_blocks[0].w_down.w
    np.testing.assert_allclose(w.mean(axis=0), 0.0, atol=1e-15)


def test_norm_kinds_by_part():
    model = build_toy_mllm(small_config())
    kinds = dict((name, n.kind) for name, n in iter_norms(model))
    assert kinds["vision.0.attn_norm"] == "layer"
    assert kinds["vision_post_norm"] == "layer"
    assert kinds["llm.0.attn_norm"] == "rms"
    assert kinds["llm_final_norm"] == "rms"


def test_iter_linears_names_and_count():
    model = build_toy_mllm(small_config(vision_blocks=2, llm_blocks=3))
    names = [name for name, _ in iter_linears(model)]
    assert names[0] == "vision_embed" and names[-1] == "head"
    assert "vision.1.w_down" in names and "llm.2.wq" in names
    assert len(names) == 4 + 6 * 5


def test_forward_shapes_and_determinism():
    rng = np.random.default_rng(0)
    model = build_toy_mllm(small_config())
    x, modality = sample_input(rng)
    a = model_forward(model, x, modality)
    b = model_forward(model, x, modality)
    assert a.shape == (6, 16)
    assert np.array_equal(a, b)


def test_forward_all_text_and_all_visual():
    rng = np.random.default_rng(1)
    model = build_toy_mllm(small_config())
    x = rng.normal(size=(4, 16))
    out_t = model_forward(model, x, np.zeros(4, dtype=int))
    out_v = model_forward(model, x, np.ones(4, dtype=int))
    assert out_t.shape == out_v.shape == (4, 16)
    assert not np.allclose(out_t, out_v)


def test_visual_rows_are_much_louder_than_text_rows():
    """The projector amplifies visual inputs while text embeddings shrink
    them, the magnitude gap the modality-split scales exist for."""
    rng = np.random.default_rng(2)
    model = build_toy_mllm(ToyMllmConfig())
    x, _ = sample_input(rng, length=16, d=64)
    emb_v, _, _ = embed_tokens(model, x, np.ones(16, dtype=int))
    emb_t, _, _ = embed_tokens(model, x * 0.025, np.zeros(16, dtype=int))
    assert np.abs(emb_v).max() > 10 * np.abs(emb_t).max()


def test_modality_length_checked():
    model = build_toy_mllm(small_config())
    with pytest.raises(ValueError, match="modality length"):
        model_forward(model, np.ones((3, 16)), np.array([0, 1]))


def test_gelu_known_values():
    np.testing.assert_allclose(gelu(np.array([[0.0]])), [[0.0]])
    # gelu(x) -> x for large x, -> 0 for very negative x
    np.testing.assert_allclose(gelu(np.array([[10.0]])), [[10.0]], rtol=1e-6)
    np.testing.assert_allclose(gelu(np.array([[-10.0]])), [[0.0]], atol=1e-12)


def gelu_oracle(x):
    """The erf form of GELU, x * Phi(x), with scipy's erf."""
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def test_gelu_matches_erf_oracle():
    """|gelu - oracle| <= 4e-15 * |x| elementwise, a bound fixed before the
    table was measured (it measures below 5e-16 * |x|); at subnormal x the
    bound is 0, so those must match exactly."""
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 40.0, -40.0, 1e6, -1e6]
    x = np.concatenate([np.linspace(-12.0, 12.0, 1_000_001), special])
    got = gelu(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - gelu_oracle(x)) <= 4e-15 * np.abs(x))
    assert gelu(np.array([[0.0]]))[0, 0] == 0.0


def test_gelu_chunks_give_the_bits_of_single_rows():
    """Chunking changes nothing: rows around a chunk boundary, and a width
    whose rows straddle chunks, give the same bits as each row alone."""
    rng = np.random.default_rng(11)
    chunk_rows = GELU_CHUNK // 256
    for rows, cols in [(chunk_rows - 1, 256), (chunk_rows, 256), (chunk_rows + 1, 256),
                       (1024, 256), (700, 96)]:
        x = rng.normal(0.0, 3.0, (rows, cols))
        got = gelu(x)
        alone = np.concatenate([gelu(x[i : i + 1]) for i in range(rows)])
        assert got.tobytes() == alone.tobytes()


@pytest.mark.parametrize("lanes_", [1, 2])
def test_gelu_into_its_input_gives_the_bits_of_a_new_array(monkeypatch, lanes_):
    """The MLP runs gelu in place; 1024 x 256 elements is the two-lane
    floor, so with two lanes both write chunks of the same buffer."""
    monkeypatch.setattr(lanes, "LANES", lanes_)
    x = np.random.default_rng(12).normal(0.0, 3.0, (1024, 256))
    want = gelu(x)
    assert gelu(x, out=x) is x
    assert x.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        gelu(want, out=np.empty((256, 1024)).T)


def test_gelu_never_turns_non_finite_input_finite():
    """NaN and +-inf entries come back non-finite, in the first chunk and in
    a later one, and leave every finite entry as it is on its own.  NaN
    and +inf raise no floating-point error on the way (no NaN is cast to
    a table index); -inf gives NaN, as in the erf formula."""
    rng = np.random.default_rng(12)
    x = rng.normal(0.0, 3.0, (2 * GELU_CHUNK // 64 + 5, 64))
    spots = [(0, 0), (3, 7), (x.shape[0] - 1, 63), (GELU_CHUNK // 64 + 2, 10)]
    values = [np.nan, np.inf, -np.inf, np.nan]
    for spot, value in zip(spots, values):
        x[spot] = value
    with np.errstate(all="raise"):
        quiet = gelu(np.where(np.isneginf(x), np.nan, x))
    assert np.isnan(quiet[0, 0]) and np.isnan(quiet[spots[3]]) and quiet[3, 7] == np.inf
    with np.errstate(invalid="ignore"):
        got = gelu(x)
    bad = ~np.isfinite(x)
    assert bad.sum() == len(spots)
    assert not np.isfinite(got[bad]).any()
    assert np.isnan(got[0, 0]) and np.isnan(got[spots[2]]) and np.isnan(got[spots[3]])
    assert got[~bad].tobytes() == gelu(x[~bad]).tobytes()


def test_hooks_see_every_block_input():
    model = build_toy_mllm(small_config(vision_blocks=2, llm_blocks=2))
    rng = np.random.default_rng(3)
    x, modality = sample_input(rng)
    seen = []

    def act_fn(name, t, modality):
        seen.append(name)
        return t

    model_forward(model, x, modality, act_fn)
    assert "llm.0.input" in seen and "llm.1.input" in seen
    assert "vision.0.input" in seen and "vision.1.input" in seen


def test_copy_model_is_independent():
    model = build_toy_mllm(small_config())
    clone = copy_model(model)
    clone.head.w[:] = 0.0
    assert model.head.w.any()


def test_model_dict_roundtrip_is_exact():
    model = build_toy_mllm(small_config())
    rng = np.random.default_rng(5)
    x, modality = sample_input(rng)
    restored = model_from_dict(model_to_dict(model))
    assert model_fingerprint(restored) == model_fingerprint(model)
    assert np.array_equal(
        model_forward(model, x, modality), model_forward(restored, x, modality)
    )


def test_model_dict_tamper_detected():
    model = build_toy_mllm(small_config())
    d = model_to_dict(model)
    d["fingerprint"] = "0" * 16
    with pytest.raises(ValueError, match="fingerprint"):
        model_from_dict(d)


def test_model_from_dict_names_missing_sections():
    with pytest.raises(ValueError, match=r"missing sections \['tensors', 'norms'\]"):
        model_from_dict({"config": {}, "flags": {}})


def _set_config_key(d):
    d["config"]["bogus"] = 1


def _set_tensors(d):
    d["tensors"] = "abc"


def _set_norms(d):
    d["norms"] = []


def _set_online_fht(d):
    d["flags"]["online_fht"] = "yes"


def _set_online_fht_entry(d):
    d["flags"]["online_fht"]["llm.0"] = "yes"


def _add_online_fht_block(d):
    d["flags"]["online_fht"]["llm.7"] = True


def _misspell_online_fht_block(d):
    d["flags"]["online_fht"]["llm.0 "] = d["flags"]["online_fht"].pop("llm.0")


def _drop_online_fht_block(d):
    del d["flags"]["online_fht"]["vision.0"]


def _set_norm_entry(d):
    d["norms"]["llm.0.attn_norm"] = [1.0]


def _set_tensor_entry(d):
    d["tensors"]["head.w"] = 5


def _set_norm_eps(d):
    d["norms"]["llm.0.attn_norm"]["eps"] = "x"


def _set_norm_eps_bool(d):
    d["norms"]["llm.0.attn_norm"]["eps"] = True


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_set_config_key, r"config has unknown keys \['bogus'\]"),
        (_set_tensors, "section 'tensors' must be an object, got str"),
        (_set_norms, "section 'norms' must be an object, got list"),
        (_set_online_fht, "flag 'online_fht' must be an object, got str"),
        (_set_online_fht_entry, r"online_fht\['llm.0'\] must be a bool"),
        (_add_online_fht_block, r"config's blocks: missing \[\], extra \['llm.7'\]"),
        (_misspell_online_fht_block, r"missing \['llm.0'\], extra \['llm.0 '\]"),
        (_drop_online_fht_block, r"config's blocks: missing \['vision.0'\], extra \[\]"),
        (_set_norm_entry, "norm 'llm.0.attn_norm' must be an object, got list"),
        (_set_tensor_entry, "embedded tensor must be a base64 string, got int"),
        (_set_norm_eps, "eps must be > 0, got 'x'"),
        (_set_norm_eps_bool, r"norm llm\.0\.attn_norm: eps must be > 0, got True"),
    ],
)
def test_malformed_model_file_raises_value_error_naming_the_field(corrupt, match):
    d = model_to_dict(build_toy_mllm(small_config()))
    corrupt(d)
    with pytest.raises(ValueError, match=match):
        model_from_dict(d)


def test_model_file_with_old_part_flags_still_loads():
    """Older model files also carry vision_rotated, llm_rotated and
    recentered beside the per-block online_fht map.  They load to the same
    model, and a fresh save drops them."""
    model = build_toy_mllm(small_config())
    model.llm_blocks[0].online_fht = True
    d = model_to_dict(model)
    old = json.loads(json.dumps(d))
    old["flags"].update(vision_rotated=False, llm_rotated=True, recentered=False)
    restored = model_from_dict(old)
    assert model_fingerprint(restored) == d["fingerprint"]
    assert restored.llm_blocks[0].online_fht
    assert not restored.vision_blocks[0].online_fht
    assert set(model_to_dict(restored)["flags"]) == {"online_fht"}


def _edit_eps(d):
    d["norms"]["llm.0.attn_norm"]["eps"] = 0.5


def _edit_online_fht(d):
    d["flags"]["online_fht"]["llm.0"] = True


@pytest.mark.parametrize("edit", [_edit_eps, _edit_online_fht], ids=["eps", "online_fht"])
def test_fingerprint_covers_every_field_that_changes_the_forward(edit):
    """A norm's eps and a block's online_fht flag change the forward, so a
    model file with either edited fails its stored fingerprint, and the
    edited model has a fingerprint of its own, which no calibration of the
    original pairs with."""
    model = build_toy_mllm(small_config())
    d = model_to_dict(model)
    edit(d)
    with pytest.raises(ValueError, match="does not match content"):
        model_from_dict(d)
    del d["fingerprint"]
    edited = model_from_dict(d)
    x, modality = sample_input(np.random.default_rng(0))
    assert not np.array_equal(model_forward(edited, x, modality), model_forward(model, x, modality))
    assert model_fingerprint(edited) != model_fingerprint(model)


def test_fingerprint_of_a_default_model_is_that_of_its_weights():
    """A default eps or a clear online_fht flag adds nothing to the hash,
    so the models gen-model writes keep the fingerprints they had before
    either was hashed, and their calibration files still pair."""
    pinned = {
        "6b5f466d849d9a2a": ToyMllmConfig(),
        "9199ef055370c61a": ToyMllmConfig(seed=9),
        "8c9516ea892bd06b": small_config(),
    }
    for fingerprint, cfg in pinned.items():
        assert model_fingerprint(build_toy_mllm(cfg)) == fingerprint, cfg
