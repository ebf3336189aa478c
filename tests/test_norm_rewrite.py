import numpy as np
import pytest

from mquant.model import (
    Linear,
    Norm,
    ToyMllmConfig,
    build_toy_mllm,
    iter_norms,
    model_forward,
    norm_forward,
    vision_encode,
)
from mquant.norm_rewrite import fold_ln_affine, preln_to_rmsnorm
from mquant.numerics import NormParams, matmul


def small_model(seed=0):
    return build_toy_mllm(
        ToyMllmConfig(d_model=16, n_heads=2, vision_blocks=2, llm_blocks=1,
                      mlp_ratio=2, seed=seed)
    )


def random_norm(rng, d, kind="layer"):
    return Norm(
        kind=kind,
        params=NormParams(
            alpha=1.0 + 0.2 * rng.normal(size=d),
            beta=0.1 * rng.normal(size=d),
            eps=1e-6,
        ),
    )


def test_fold_preserves_norm_then_linear():
    """norm(x) @ w + b must be identical before and after the fold, for any
    input, because the fold is pure algebra on the affine pair."""
    rng = np.random.default_rng(0)
    d = 8
    norm = random_norm(rng, d)
    lin = Linear(w=rng.normal(size=(d, 5)), b=rng.normal(size=5))
    x = rng.normal(size=(10, d)) * 3.0
    before = matmul(norm_forward(norm, x), lin.w) + lin.b
    fold_ln_affine(norm, [lin])
    after = matmul(norm_forward(norm, x), lin.w) + lin.b
    np.testing.assert_allclose(after, before, atol=1e-12)


def test_fold_leaves_uniform_gain():
    rng = np.random.default_rng(1)
    d = 8
    norm = random_norm(rng, d)
    lin = Linear(w=rng.normal(size=(d, 5)), b=rng.normal(size=5))
    fold_ln_affine(norm, [lin])
    np.testing.assert_allclose(norm.params.alpha, 1.0 / np.sqrt(d))
    np.testing.assert_array_equal(norm.params.beta, 0.0)


def test_fold_with_unit_affine_changes_nothing():
    d = 8
    norm = Norm(
        kind="layer",
        params=NormParams(alpha=np.full(d, 1 / np.sqrt(d)), beta=np.zeros(d)),
    )
    w0 = np.arange(d * 3, dtype=float).reshape(d, 3)
    lin = Linear(w=w0.copy(), b=np.zeros(3))
    fold_ln_affine(norm, [lin])
    np.testing.assert_array_equal(lin.w, w0)
    np.testing.assert_array_equal(lin.b, 0.0)


def test_fold_rejects_rms_norm():
    rng = np.random.default_rng(2)
    norm = random_norm(rng, 4, kind="rms")
    with pytest.raises(ValueError, match="LayerNorm"):
        fold_ln_affine(norm, [])


def test_fold_checks_consumer_width():
    rng = np.random.default_rng(3)
    norm = random_norm(rng, 4)
    lin = Linear(w=np.ones((6, 2)), b=np.zeros(2))
    with pytest.raises(ValueError, match="width"):
        fold_ln_affine(norm, [lin])


def test_rewrite_preserves_vision_encoder_output():
    """The rewritten encoder must match the original for any visual input.
    The final LayerNorm's shift invariance absorbs the recentering, and the
    affine folds are exact."""
    model = small_model()
    rewritten = preln_to_rmsnorm(model)
    rng = np.random.default_rng(4)
    for _ in range(10):
        rows = rng.uniform(-20, 10, (int(rng.integers(1, 9)), 16))
        a = vision_encode(model, rows)
        b = vision_encode(rewritten, rows)
        np.testing.assert_allclose(b, a, atol=1e-6)


def test_rewrite_preserves_full_model_output():
    model = small_model()
    rewritten = preln_to_rmsnorm(model)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (7, 16))
    modality = np.array([1, 1, 0, 1, 0, 0, 1])
    x[modality == 1] *= 15.0
    a = model_forward(model, x, modality)
    b = model_forward(rewritten, x, modality)
    np.testing.assert_allclose(b, a, atol=1e-6)


def test_rewrite_swaps_all_vision_norm_kinds():
    rewritten = preln_to_rmsnorm(small_model())
    for name, norm in iter_norms(rewritten):
        assert norm.kind == "rms", name


def test_rewrite_zeroes_residual_writer_row_means():
    """Every projection writing into the vision residual stream must emit
    zero-mean rows afterwards; that is what kills the recentering term."""
    rewritten = preln_to_rmsnorm(small_model())
    writers = [rewritten.vision_embed]
    for blk in rewritten.vision_blocks:
        writers.extend([blk.wo, blk.w_down])
    for lin in writers:
        np.testing.assert_allclose(lin.w.mean(axis=1), 0.0, atol=1e-8)
        assert abs(lin.b.mean()) < 1e-8


def test_rewrite_is_idempotent():
    model = small_model()
    once = preln_to_rmsnorm(model)
    twice = preln_to_rmsnorm(once)
    rng = np.random.default_rng(6)
    rows = rng.uniform(-5, 5, (6, 16))
    np.testing.assert_allclose(
        vision_encode(twice, rows), vision_encode(once, rows), atol=1e-12
    )
    # weights agree too, not just outputs
    np.testing.assert_allclose(
        twice.vision_blocks[0].wq.w, once.vision_blocks[0].wq.w, atol=1e-12
    )


def test_rewrite_leaves_llm_part_alone():
    model = small_model()
    rewritten = preln_to_rmsnorm(model)
    np.testing.assert_array_equal(
        rewritten.llm_blocks[0].wq.w, model.llm_blocks[0].wq.w
    )
    np.testing.assert_array_equal(rewritten.head.w, model.head.w)
    np.testing.assert_array_equal(
        rewritten.llm_final_norm.params.alpha, model.llm_final_norm.params.alpha
    )


def test_rewrite_does_not_touch_source_model():
    model = small_model()
    before = model.vision_blocks[0].wq.w.copy()
    preln_to_rmsnorm(model)
    np.testing.assert_array_equal(model.vision_blocks[0].wq.w, before)
    assert model.vision_post_norm.kind == "layer"
