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
from .model import RMS_KIND, Block, Norm, ToyMllm
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


def rotate_model_offline(model: ToyMllm, parts: tuple = ("llm",)) -> dict:
    """Absorb the Hadamard rotation into the model's weights, in place.

    Every norm inside a rotated part must already be RMS kind (the vision
    part gets that from the pre-LN rewrite); a remaining LayerNorm does not
    commute with H and raises.  Every part is checked before any weight is
    written, so a refused model is left as it was.

    Args:
        model: the model to rewrite.
        parts: any of "vision", "llm".

    Returns:
        The snapshots: each rotated down-projection name mapped to its
        output-rotated weight BEFORE the Hadamard factor, the reference the
        outlier split verifies against.
    """
    for part in parts:
        if part not in ("vision", "llm"):
            raise ValueError(f"unknown part {part!r}")
    # Per part, llm first: its blocks, its final norm, the linears that
    # write into its stream, and the linear that reads its final norm.
    table = (
        ("llm", model.llm_blocks, "llm_final_norm",
         (model.text_embed, model.projector), model.head),
        ("vision", model.vision_blocks, "vision_post_norm",
         (model.vision_embed,), model.projector),
    )
    table = [row for row in table if row[0] in parts]
    for part, blocks, norm_name, _, _ in table:
        if any(blk.online_fht for blk in blocks):
            raise ValueError(f"{part} part is already rotated")
        bad = [
            f"{part}.{i}" for i, blk in enumerate(blocks)
            if blk.attn_norm.kind != RMS_KIND or blk.mlp_norm.kind != RMS_KIND
        ]
        if getattr(model, norm_name).kind != RMS_KIND:
            bad.append(norm_name)
        if bad:
            raise ValueError(f"{part} part still contains LayerNorm at: {', '.join(bad)}")
    q = walsh_hadamard(model.config.d_model)
    q_t = np.ascontiguousarray(q.T)
    snapshots: dict = {}
    for part, blocks, norm_name, producers, consumer in table:
        _fold_rms_gain(getattr(model, norm_name), [consumer])
        for lin in producers:
            lin.w = matmul(lin.w, q)
            lin.b = matmul(lin.b[None, :], q)[0]
        consumer.w = matmul(q_t, consumer.w)
        for i, blk in enumerate(blocks):
            snapshots[f"{part}.{i}.w_down"] = _rotate_block(blk, q)
    return snapshots
