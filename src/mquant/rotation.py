"""Offline orthogonal rotation of the residual streams.

RMS normalization commutes with any orthogonal matrix Q: norm(x Q) =
norm(x) Q when the gain is uniform.  So the whole residual stream of a part
can be re-expressed in rotated coordinates by absorbing Q into the weights
at its boundary: producers (embeddings, attention output, down-projection,
their biases) pick up Q on the output side, consumers (q/k/v, up
projection, output head) pick up Q^T on the input side.  Down-projections
additionally absorb the Hadamard transform whose online counterpart is
applied to their activations at run time.

Non-uniform norm gains do not commute with Q, so they are folded into their
consumers first.  An identity rotation has nothing to commute past and
skips both the folds and the products, making it an exact bitwise no-op
when the online transform is off.
"""

from __future__ import annotations

from dataclasses import dataclass

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

ORTHOGONALITY_TOL = 1e-8


@dataclass
class RotationSet:
    """Per-part rotation matrices plus the online-transform switches.

    online_fht marks that rotated down-projections pair with a run-time
    Hadamard transform of their input activations.  randomized composes the
    base matrices with a seeded +-1 diagonal; that breaks the positive
    column-mean assumption behind the outlier-row split, so the pipeline
    refuses to combine it with the split mechanism.
    """

    q_vision: np.ndarray
    q_llm: np.ndarray
    online_fht: bool = True
    randomized: bool = False

    def __post_init__(self):
        for name, q in (("q_vision", self.q_vision), ("q_llm", self.q_llm)):
            q = np.asarray(q, dtype=np.float64)
            err = float(np.abs(matmul(q, np.ascontiguousarray(q.T)) - np.eye(q.shape[0])).max())
            if err > ORTHOGONALITY_TOL:
                raise ValueError(
                    f"{name} is not orthogonal: max |QQ^T - I| = {err:.3e}"
                )


def build_rotation_set(
    d_model: int,
    randomized: bool = False,
    seed: int = 0,
    identity: bool = False,
) -> RotationSet:
    """Hadamard-based rotations for both parts.

    identity=True returns unit matrices with the online transform switched
    off, the configuration under which rotation must be an exact no-op.
    """
    if identity:
        eye = np.eye(d_model)
        return RotationSet(q_vision=eye, q_llm=eye.copy(), online_fht=False)
    h = walsh_hadamard(d_model)
    if randomized:
        rng = np.random.default_rng(seed)
        s_v = rng.choice((-1.0, 1.0), size=d_model)
        s_l = rng.choice((-1.0, 1.0), size=d_model)
        return RotationSet(
            q_vision=h * s_v[None, :],
            q_llm=h * s_l[None, :],
            online_fht=True,
            randomized=True,
        )
    return RotationSet(q_vision=h, q_llm=h.copy(), online_fht=True)


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


def _is_identity(q: np.ndarray) -> bool:
    return np.array_equal(q, np.eye(q.shape[0]))


def _rotate_block(blk: Block, q: np.ndarray, online_fht: bool) -> np.ndarray:
    """Absorb q into one block, returning the down weight before its
    Hadamard factor (the outlier split verifies against that snapshot)."""
    if _is_identity(q):
        pre_h = blk.w_down.w.copy()
    else:
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
    if online_fht:
        # The run-time transform of the down input pairs with H on the
        # weight's input side; H is symmetric so fht along axis 0 is H @ w.
        blk.w_down.w = fht(pre_h, axis=0)
        blk.online_fht = True
    else:
        blk.w_down.w = pre_h
    return pre_h


def rotate_model_offline(
    model: ToyMllm,
    rset: RotationSet,
    parts: tuple = ("llm",),
) -> tuple[ToyMllm, dict]:
    """Absorb the rotations into a copy of the model's weights.

    Every norm inside a rotated part must already be RMS kind (the vision
    part gets that from the pre-LN rewrite); a remaining LayerNorm does not
    commute with Q and raises.

    Args:
        model: source model, left untouched.
        rset: rotation matrices to absorb.
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
    snapshots: dict = {}

    if "llm" in parts:
        if out.llm_rotated:
            raise ValueError("llm part is already rotated")
        q = rset.q_llm
        bad = [
            f"llm.{i}" for i, blk in enumerate(out.llm_blocks)
            if blk.attn_norm.kind != RMS_KIND or blk.mlp_norm.kind != RMS_KIND
        ]
        if out.llm_final_norm.kind != RMS_KIND:
            bad.append("llm_final_norm")
        if bad:
            raise ValueError(f"llm part still contains LayerNorm at: {', '.join(bad)}")
        if not _is_identity(q):
            _fold_rms_gain(out.llm_final_norm, [out.head])
            out.text_embed.w = matmul(out.text_embed.w, q)
            out.text_embed.b = matmul(out.text_embed.b[None, :], q)[0]
            out.projector.w = matmul(out.projector.w, q)
            out.projector.b = matmul(out.projector.b[None, :], q)[0]
            out.head.w = matmul(np.ascontiguousarray(q.T), out.head.w)
        for i, blk in enumerate(out.llm_blocks):
            snapshots[f"llm.{i}.w_down"] = _rotate_block(blk, q, rset.online_fht)
        out.llm_rotated = True

    if "vision" in parts:
        if out.vision_rotated:
            raise ValueError("vision part is already rotated")
        q = rset.q_vision
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
        if not _is_identity(q):
            _fold_rms_gain(out.vision_post_norm, [out.projector])
            out.vision_embed.w = matmul(out.vision_embed.w, q)
            out.vision_embed.b = matmul(out.vision_embed.b[None, :], q)[0]
            out.projector.w = matmul(np.ascontiguousarray(q.T), out.projector.w)
        for i, blk in enumerate(out.vision_blocks):
            snapshots[f"vision.{i}.w_down"] = _rotate_block(blk, q, rset.online_fht)
        out.vision_rotated = True

    return out, snapshots
