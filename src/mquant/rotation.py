"""Offline Hadamard rotation of the residual streams.

RMS normalization commutes with any orthogonal matrix: norm(x H) =
norm(x) H when the gain is uniform.  So the whole residual stream of a part
can be re-expressed in rotated coordinates by absorbing the normalized
Walsh-Hadamard matrix H into the weights at its boundary: producers
(embeddings, attention output, down-projection, their biases) pick up H on
the output side, consumers (q/k/v, up projection, output head) pick up H^T
on the input side.  Down-projections additionally absorb the Hadamard
transform whose online counterpart is applied to their activations at run
time.

Non-uniform norm gains do not commute with H, so they are folded into their
consumers first.
"""

from __future__ import annotations

import numpy as np

from .hadamard import fht, walsh_hadamard
from .model import (
    RMS_KIND,
    Block,
    Norm,
    ToyMllm,
    copy_model,
)
from .numerics import matmul


def _fold_rms_gain(norm: Norm, consumers) -> None:
    """Move a non-uniform RMS gain into the consuming projections."""
    if norm.kind != RMS_KIND:
        raise ValueError(f"gain folding expects an RMS norm, got {norm.kind!r}")
    alpha = norm.params.alpha
    if np.all(alpha == alpha[0]):
        return
    for lin in consumers:
        lin.w = alpha[:, None] * lin.w
    norm.params.alpha = np.ones_like(alpha)


def _rotate_block(blk: Block, q: np.ndarray) -> np.ndarray:
    """Absorb q into one block, returning the down weight before its
    Hadamard factor (the outlier split verifies against that snapshot)."""
    q_t = np.ascontiguousarray(q.T)
    _fold_rms_gain(blk.attn_norm, [blk.wq, blk.wk, blk.wv])
    _fold_rms_gain(blk.mlp_norm, [blk.w_up])
    # Consumers of the rotated stream: input side.
    blk.wq.w = matmul(q_t, blk.wq.w)
    blk.wk.w = matmul(q_t, blk.wk.w)
    blk.wv.w = matmul(q_t, blk.wv.w)
    blk.w_up.w = matmul(q_t, blk.w_up.w)
    # Producers into the rotated stream: output side, biases included.
    blk.wo.w = matmul(blk.wo.w, q)
    blk.wo.b = matmul(blk.wo.b[None, :], q)[0]
    pre_h = matmul(blk.w_down.w, q)
    blk.w_down.b = matmul(blk.w_down.b[None, :], q)[0]
    # The run-time transform of the down input pairs with H on the weight's
    # input side; H is symmetric so fht along axis 0 is H @ w.
    blk.w_down.w = fht(pre_h, axis=0)
    blk.online_fht = True
    return pre_h


def rotate_model_offline(
    model: ToyMllm,
    parts: tuple = ("llm",),
) -> tuple[ToyMllm, dict]:
    """Absorb the Hadamard rotation into a copy of the model's weights.

    Every norm inside a rotated part must already be RMS kind (the vision
    part gets that from the pre-LN rewrite); a remaining LayerNorm does not
    commute with H and raises.

    Args:
        model: source model, left untouched.
        parts: any of "vision", "llm".

    Returns:
        (rotated copy, snapshots): snapshots maps each rotated
        down-projection name to its output-rotated weight BEFORE the
        Hadamard factor, the reference the outlier split verifies against.
    """
    for part in parts:
        if part not in ("vision", "llm"):
            raise ValueError(f"unknown part {part!r}")
    out = copy_model(model)
    q = walsh_hadamard(out.config.d_model)
    q_t = np.ascontiguousarray(q.T)
    snapshots: dict = {}

    if "llm" in parts:
        if any(blk.online_fht for blk in out.llm_blocks):
            raise ValueError("llm part is already rotated")
        bad = [
            f"llm.{i}" for i, blk in enumerate(out.llm_blocks)
            if blk.attn_norm.kind != RMS_KIND or blk.mlp_norm.kind != RMS_KIND
        ]
        if out.llm_final_norm.kind != RMS_KIND:
            bad.append("llm_final_norm")
        if bad:
            raise ValueError(f"llm part still contains LayerNorm at: {', '.join(bad)}")
        _fold_rms_gain(out.llm_final_norm, [out.head])
        out.text_embed.w = matmul(out.text_embed.w, q)
        out.text_embed.b = matmul(out.text_embed.b[None, :], q)[0]
        out.projector.w = matmul(out.projector.w, q)
        out.projector.b = matmul(out.projector.b[None, :], q)[0]
        out.head.w = matmul(q_t, out.head.w)
        for i, blk in enumerate(out.llm_blocks):
            snapshots[f"llm.{i}.w_down"] = _rotate_block(blk, q)

    if "vision" in parts:
        if any(blk.online_fht for blk in out.vision_blocks):
            raise ValueError("vision part is already rotated")
        bad = [
            f"vision.{i}" for i, blk in enumerate(out.vision_blocks)
            if blk.attn_norm.kind != RMS_KIND or blk.mlp_norm.kind != RMS_KIND
        ]
        if out.vision_post_norm.kind != RMS_KIND:
            bad.append("vision_post_norm")
        if bad:
            raise ValueError(
                f"vision part still contains LayerNorm at: {', '.join(bad)}"
            )
        _fold_rms_gain(out.vision_post_norm, [out.projector])
        out.vision_embed.w = matmul(out.vision_embed.w, q)
        out.vision_embed.b = matmul(out.vision_embed.b[None, :], q)[0]
        out.projector.w = matmul(q_t, out.projector.w)
        for i, blk in enumerate(out.vision_blocks):
            snapshots[f"vision.{i}.w_down"] = _rotate_block(blk, q)

    return out, snapshots
