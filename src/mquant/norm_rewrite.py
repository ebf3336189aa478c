"""Pre-LN to RMS-norm rewrite for the vision encoder.

LayerNorm differs from RMS normalization only through the per-feature
affine pair and the recentering term.  The affine pair folds exactly into
whatever linear consumes the norm output.  The recentering term vanishes
once every tensor entering the residual stream is zero-mean per row, which
one recentering of the embedding output and of every residual-writing
projection achieves: zero-mean rows stay zero-mean through sums.

The recentering projection I - (1/D) 11^T is never materialized; it acts as
a row-mean subtraction on the affected weights and biases.
"""

from __future__ import annotations

import numpy as np

from .model import LAYER_KIND, RMS_KIND, Linear, Norm, ToyMllm
from .numerics import matmul


def fold_ln_affine(norm: Norm, consumers: list[Linear]) -> None:
    """Fold a LayerNorm's affine pair into its consuming projections, in place.

    Each consumer picks up w <- sqrt(D) * diag(alpha) @ w on the input side
    and b <- b + beta @ w (original w).  The norm is left with the uniform
    gain 1/sqrt(D) and zero offset, which keeps it exactly equivalent and
    makes it commute with any orthogonal rotation.  With alpha = 1/sqrt(D)
    and beta = 0 the consumers do not change.

    Args:
        norm: a LayerNorm-kind Norm, rewritten in place.
        consumers: the projections reading this norm's output.
    """
    if norm.kind != LAYER_KIND:
        raise ValueError(f"fold expects a LayerNorm, got {norm.kind!r} norm")
    alpha = norm.params.alpha
    beta = norm.params.beta
    d = alpha.shape[0]
    scaled = alpha * np.sqrt(d)
    for lin in consumers:
        if lin.w.shape[0] != d:
            raise ValueError(
                f"consumer input width {lin.w.shape[0]} != norm width {d}"
            )
        lin.b = lin.b + matmul(beta[None, :], lin.w)[0]
        lin.w = scaled[:, None] * lin.w
    norm.params.alpha = np.full(d, 1.0 / np.sqrt(d))
    norm.params.beta = np.zeros(d)


def _recenter_rows(lin: Linear) -> None:
    # Output recentering: right-multiplying by I - (1/D) 11^T subtracts each
    # row's mean from the weight and the bias's mean from the bias.
    lin.w = lin.w - lin.w.mean(axis=1, keepdims=True)
    lin.b = lin.b - lin.b.mean()


def preln_to_rmsnorm(model: ToyMllm) -> None:
    """Rewrite the vision encoder's LayerNorms into RMS norms, in place.

    Three moves: fold every LayerNorm affine into its consumers, recenter
    every projection that writes into the vision residual stream
    (embedding, attention output, down-projection), and swap the norm
    kind.  Residual sums of zero-mean rows are zero-mean, so after the
    recentering the LayerNorm's mean subtraction has nothing left to do and
    RMS normalization computes the same thing.

    Applying the rewrite twice is a no-op: folded norms are already RMS kind
    and skipped, and recentering a weight a second time subtracts a row
    mean that is zero up to roundoff.

    Args:
        model: any ToyMllm; only its vision part is rewritten.
    """
    for blk in model.vision_blocks:
        if blk.attn_norm.kind == LAYER_KIND:
            fold_ln_affine(blk.attn_norm, [blk.wq, blk.wk, blk.wv])
        if blk.mlp_norm.kind == LAYER_KIND:
            fold_ln_affine(blk.mlp_norm, [blk.w_up])
    if model.vision_post_norm.kind == LAYER_KIND:
        fold_ln_affine(model.vision_post_norm, [model.projector])

    _recenter_rows(model.vision_embed)
    for blk in model.vision_blocks:
        _recenter_rows(blk.wo)
        _recenter_rows(blk.w_down)

    for blk in model.vision_blocks:
        blk.attn_norm.kind = RMS_KIND
        blk.mlp_norm.kind = RMS_KIND
    model.vision_post_norm.kind = RMS_KIND
