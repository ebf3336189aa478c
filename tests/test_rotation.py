import copy

import numpy as np
import pytest

from mquant.hadamard import fht, walsh_hadamard
from mquant.model import (
    ToyMllmConfig,
    build_toy_mllm,
    model_forward,
    model_from_dict,
    model_to_dict,
)
from mquant.norm_rewrite import preln_to_rmsnorm
from mquant.numerics import matmul
from mquant.rotation import rotate_model_offline


def small_model(seed=0):
    return build_toy_mllm(
        ToyMllmConfig(d_model=16, n_heads=2, vision_blocks=1, llm_blocks=2,
                      mlp_ratio=2, seed=seed)
    )


def mixed_input(rng, length=7, d=16):
    x = rng.uniform(-0.5, 0.5, (length, d))
    modality = rng.integers(0, 2, length)
    x[modality == 1] = rng.uniform(-20, 10, (int((modality == 1).sum()), d))
    return x, modality


def test_llm_rotation_preserves_forward():
    model = small_model()
    rotated = copy.deepcopy(model)
    snaps = rotate_model_offline(rotated, parts=("llm",))
    assert set(snaps) == {"llm.0.w_down", "llm.1.w_down"}
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, modality = mixed_input(rng)
        a = model_forward(model, x, modality)
        b = model_forward(rotated, x, modality)
        np.testing.assert_allclose(b, a, atol=1e-5)


def test_vision_rotation_needs_rms_norms_first():
    model = small_model()
    with pytest.raises(ValueError, match="LayerNorm"):
        rotate_model_offline(model, parts=("vision",))


def test_full_stack_rotation_preserves_forward():
    model = small_model()
    step3 = copy.deepcopy(model)
    rotate_model_offline(step3, parts=("llm",))
    preln_to_rmsnorm(step3)
    snaps = rotate_model_offline(step3, parts=("vision",))
    assert "vision.0.w_down" in snaps
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, modality = mixed_input(rng)
        a = model_forward(model, x, modality)
        b = model_forward(step3, x, modality)
        np.testing.assert_allclose(b, a, atol=1e-5)


def test_snapshot_is_pre_transform_weight():
    """The snapshot must be exactly the down weight before its Hadamard
    factor: transforming it reproduces the stored weight bit for bit."""
    model = small_model()
    rotated = copy.deepcopy(model)
    snaps = rotate_model_offline(rotated, parts=("llm",))
    for i, blk in enumerate(rotated.llm_blocks):
        pre = snaps[f"llm.{i}.w_down"]
        assert np.array_equal(blk.w_down.w, fht(pre, axis=0))
        # and the snapshot itself is the output-rotated original
        want = matmul(model.llm_blocks[i].w_down.w, walsh_hadamard(16))
        np.testing.assert_allclose(pre, want, atol=1e-12)
        assert blk.online_fht


def test_double_rotation_rejected():
    rotated = small_model()
    rotate_model_offline(rotated, parts=("llm",))
    with pytest.raises(ValueError, match="already rotated"):
        rotate_model_offline(rotated, parts=("llm",))


def test_double_vision_rotation_rejected_after_file_round_trip():
    """The per-block online_fht flags are the only record that a part is
    rotated, so they must survive a model file round trip."""
    step2 = small_model()
    rotate_model_offline(step2, parts=("llm",))
    preln_to_rmsnorm(step2)
    rotate_model_offline(step2, parts=("vision",))
    restored = model_from_dict(model_to_dict(step2))
    for part in ("llm", "vision"):
        with pytest.raises(ValueError, match=f"{part} part is already rotated"):
            rotate_model_offline(restored, parts=(part,))


def test_unknown_part_rejected():
    with pytest.raises(ValueError, match="unknown part"):
        rotate_model_offline(small_model(), parts=("audio",))


def vision_rotated_model():
    model = small_model()
    preln_to_rmsnorm(model)
    rotate_model_offline(model, parts=("vision",))
    return model


@pytest.mark.parametrize(
    "make, match",
    [
        (small_model, "vision part still contains LayerNorm"),
        (vision_rotated_model, "vision part is already rotated"),
    ],
)
def test_refused_rotation_leaves_the_model_unchanged(make, match):
    """Every part is checked before any weight is written: a rotation
    refused for its vision part leaves the model bit for bit as it was,
    its LLM part (which passes the checks and rotates first) included."""
    model = make()
    before = model_to_dict(model)
    with pytest.raises(ValueError, match=match):
        rotate_model_offline(model, parts=("llm", "vision"))
    assert model_to_dict(model) == before
