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
    rotated, snaps = rotate_model_offline(model, parts=("llm",))
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
    step1, _ = rotate_model_offline(model, parts=("llm",))
    step2 = preln_to_rmsnorm(step1)
    step3, snaps = rotate_model_offline(step2, parts=("vision",))
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
    rotated, snaps = rotate_model_offline(model, parts=("llm",))
    for i, blk in enumerate(rotated.llm_blocks):
        pre = snaps[f"llm.{i}.w_down"]
        assert np.array_equal(blk.w_down.w, fht(pre, axis=0))
        # and the snapshot itself is the output-rotated original
        want = matmul(model.llm_blocks[i].w_down.w, walsh_hadamard(16))
        np.testing.assert_allclose(pre, want, atol=1e-12)
        assert blk.online_fht


def test_double_rotation_rejected():
    model = small_model()
    rotated, _ = rotate_model_offline(model, parts=("llm",))
    with pytest.raises(ValueError, match="already rotated"):
        rotate_model_offline(rotated, parts=("llm",))


def test_double_vision_rotation_rejected_after_file_round_trip():
    """The per-block online_fht flags are the only record that a part is
    rotated, so they must survive a model file round trip."""
    step1, _ = rotate_model_offline(small_model(), parts=("llm",))
    step2, _ = rotate_model_offline(preln_to_rmsnorm(step1), parts=("vision",))
    restored = model_from_dict(model_to_dict(step2))
    for part in ("llm", "vision"):
        with pytest.raises(ValueError, match=f"{part} part is already rotated"):
            rotate_model_offline(restored, parts=(part,))


def test_unknown_part_rejected():
    with pytest.raises(ValueError, match="unknown part"):
        rotate_model_offline(small_model(), parts=("audio",))


def test_source_model_untouched():
    model = small_model()
    before = model.llm_blocks[0].wq.w.copy()
    rotate_model_offline(model, parts=("llm",))
    np.testing.assert_array_equal(model.llm_blocks[0].wq.w, before)
    assert not any(blk.online_fht for blk in model.llm_blocks)
