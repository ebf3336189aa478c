"""Self-contained toy multimodal transformer.

A small vision encoder (pre-LN blocks, bidirectional attention, final
LayerNorm) feeds a projector into a small causal LLM stack (RMS-normed
blocks with rotary phases).  Everything is float64 and deterministic in the
seed.  The vision down-projections are seeded with alternating positive and
negative column means so rotation concentrates real outlier mass into the
first row; the LLM down-projections get exactly zero column means so they
never trigger the split.

model_forward is the one forward driver: the float reference, calibration
and the quantized forward all run it, on whatever weights the model holds.
The quantized pipeline freezes each weight on its grid in a copy of the
model and attaches each outlier-row split plan to its block, so a block
with a split runs its down-projection through rms_forward.  The one
call-time interception point is act_fn, applied to every block input:
calibration records there, and the quantized forward applies its
activation grids there.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import fileio, lanes
from .hadamard import fht
from .msq_aifs import (
    TEXT,
    VISUAL,
    AttentionPlan,
    attention_forward,
    build_aifs_plan,
    build_attention_plan,
    check_tags,
    pack_lengths,
    rope_tables,
)
from .numerics import (
    NormParams,
    as_tensor,
    check_finite,
    layer_norm,
    matmul,
    rms_norm,
)
from .rms import RmsSplitPlan, rms_forward

LAYER_KIND = "layer"
RMS_KIND = "rms"


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# Per field annotation: what a config value must be, the types that pass,
# and the cast that stores it as a plain Python value.  bool is an int
# subclass, so only a bool field takes a bool.
_KINDS = {
    "bool": ("a bool", bool, bool),
    "int": ("an int", (int, np.integer), int),
    "float": ("a real number", (int, float, np.integer, np.floating), float),
    "str": ("a string", str, str),
}


def check_field_types(obj, what: str = "config key") -> None:
    """Reject a field value of the wrong type, naming its key, and store
    numpy scalars as plain Python values.  Fields annotated with another
    type, and None where the annotation allows it, are left alone."""
    for f in fields(obj):
        kind = f.type.removesuffix(" | None")
        value = getattr(obj, f.name)
        if kind not in _KINDS or (value is None and kind != f.type):
            continue
        must, types, cast = _KINDS[kind]
        if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
            raise ValueError(
                f"{what} {f.name!r} must be {must}, got {type(value).__name__} {value!r}"
            )
        setattr(obj, f.name, cast(value))


@dataclass
class ToyMllmConfig:
    d_model: int = 64
    n_heads: int = 4
    vision_blocks: int = 2
    llm_blocks: int = 2
    mlp_ratio: int = 4
    seed: int = 0
    vision_weight_mean_bias: float = 0.02

    def __post_init__(self):
        check_field_types(self)
        if not _is_pow2(self.d_model):
            raise ValueError(f"d_model must be a power of two, got {self.d_model}")
        if not _is_pow2(self.d_model * self.mlp_ratio):
            raise ValueError(
                f"d_model * mlp_ratio must be a power of two, got {self.d_model * self.mlp_ratio}"
            )
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(
                f"n_heads={self.n_heads} must divide d_model={self.d_model}"
            )
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("head dimension must be even for rotary phases")
        if self.vision_blocks < 1 or self.llm_blocks < 1:
            raise ValueError("need at least one block in each part")
        if self.mlp_ratio < 1:
            raise ValueError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if not self.vision_weight_mean_bias > 0.0:
            raise ValueError(
                f"vision_weight_mean_bias must be > 0, got {self.vision_weight_mean_bias}"
            )

    @property
    def d_ff(self) -> int:
        return self.d_model * self.mlp_ratio

    def to_dict(self) -> dict:
        return {
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "vision_blocks": self.vision_blocks,
            "llm_blocks": self.llm_blocks,
            "mlp_ratio": self.mlp_ratio,
            "seed": self.seed,
            "vision_weight_mean_bias": self.vision_weight_mean_bias,
        }


@dataclass
class Linear:
    """y = x @ w + b with w of shape (d_in, d_out)."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = as_tensor(self.w)
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if self.b.shape[0] != self.w.shape[1]:
            raise ValueError(
                f"bias length {self.b.shape[0]} != output width {self.w.shape[1]}"
            )


@dataclass
class Norm:
    kind: str
    params: NormParams

    def __post_init__(self):
        if self.kind not in (LAYER_KIND, RMS_KIND):
            raise ValueError(f"unknown norm kind {self.kind!r}")


@dataclass
class Block:
    attn_norm: Norm
    wq: Linear
    wk: Linear
    wv: Linear
    wo: Linear
    mlp_norm: Norm
    w_up: Linear
    w_down: Linear
    rope: bool
    online_fht: bool = False
    split: RmsSplitPlan | None = None


@dataclass
class ToyMllm:
    config: ToyMllmConfig
    vision_embed: Linear
    vision_blocks: list
    vision_post_norm: Norm
    projector: Linear
    text_embed: Linear
    llm_blocks: list
    llm_final_norm: Norm
    head: Linear


# ===== construction =====


def _linear(rng, d_in: int, d_out: int, std: float, bias_std: float = 0.01) -> Linear:
    return Linear(
        w=rng.normal(0.0, std, size=(d_in, d_out)),
        b=rng.normal(0.0, bias_std, size=d_out),
    )


def _norm(rng, kind: str, d: int) -> Norm:
    alpha = 1.0 + 0.1 * rng.normal(size=d)
    beta = 0.05 * rng.normal(size=d) if kind == LAYER_KIND else np.zeros(d)
    return Norm(kind=kind, params=NormParams(alpha=alpha, beta=beta, eps=1e-6))


def _block(rng, cfg: ToyMllmConfig, kind: str, rope: bool, down: Linear) -> Block:
    d = cfg.d_model
    std = d ** -0.5
    return Block(
        attn_norm=_norm(rng, kind, d),
        wq=_linear(rng, d, d, std),
        wk=_linear(rng, d, d, std),
        wv=_linear(rng, d, d, std),
        wo=_linear(rng, d, d, std),
        mlp_norm=_norm(rng, kind, d),
        w_up=_linear(rng, d, cfg.d_ff, std),
        w_down=down,
        rope=rope,
    )


def build_toy_mllm(cfg: ToyMllmConfig) -> ToyMllm:
    """Deterministically materialize the model from its config."""
    rng = np.random.default_rng(cfg.seed)
    d, d_ff = cfg.d_model, cfg.d_ff

    def vision_down() -> Linear:
        lin = _linear(rng, d_ff, d, 0.02)
        signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        lin.w = lin.w + cfg.vision_weight_mean_bias * signs[None, :]
        return lin

    def llm_down() -> Linear:
        lin = _linear(rng, d_ff, d, d_ff ** -0.5)
        lin.w = lin.w - lin.w.mean(axis=0, keepdims=True)
        return lin

    vision_blocks = [
        _block(rng, cfg, LAYER_KIND, rope=False, down=vision_down())
        for _ in range(cfg.vision_blocks)
    ]
    llm_blocks = [
        _block(rng, cfg, RMS_KIND, rope=True, down=llm_down())
        for _ in range(cfg.llm_blocks)
    ]
    return ToyMllm(
        config=cfg,
        vision_embed=_linear(rng, d, d, 1.0 / 80.0),
        vision_blocks=vision_blocks,
        vision_post_norm=_norm(rng, LAYER_KIND, d),
        projector=_linear(rng, d, d, 1.0),
        text_embed=_linear(rng, d, d, 0.15),
        llm_blocks=llm_blocks,
        llm_final_norm=_norm(rng, RMS_KIND, d),
        head=_linear(rng, d, d, d ** -0.5),
    )


def _copy_linear(lin: Linear) -> Linear:
    return Linear(lin.w.copy(), lin.b.copy())


def _copy_norm(norm: Norm) -> Norm:
    p = norm.params
    return Norm(norm.kind, NormParams(p.alpha.copy(), p.beta.copy(), p.eps))


def _copy_block(blk: Block) -> Block:
    linears = {name: _copy_linear(getattr(blk, name)) for name in BLOCK_LINEARS}
    # A split plan's main_q is its block's w_down.w; the copies share theirs.
    memo = {id(blk.w_down.w): linears["w_down"].w}
    return replace(
        blk,
        attn_norm=_copy_norm(blk.attn_norm),
        mlp_norm=_copy_norm(blk.mlp_norm),
        split=copy.deepcopy(blk.split, memo),
        **linears,
    )


def copy_model(model: ToyMllm) -> ToyMllm:
    """A copy of model that shares no array with it (the config, never
    changed in place, is shared).  Built field by field: copy.deepcopy of
    the same tree costs about 0.2 ms more per default model, and every
    quantize and qmodel load makes three copies."""
    return replace(
        model,
        vision_embed=_copy_linear(model.vision_embed),
        vision_blocks=[_copy_block(blk) for blk in model.vision_blocks],
        vision_post_norm=_copy_norm(model.vision_post_norm),
        projector=_copy_linear(model.projector),
        text_embed=_copy_linear(model.text_embed),
        llm_blocks=[_copy_block(blk) for blk in model.llm_blocks],
        llm_final_norm=_copy_norm(model.llm_final_norm),
        head=_copy_linear(model.head),
    )


# ===== named traversal =====

BLOCK_LINEARS = ("wq", "wk", "wv", "wo", "w_up", "w_down")


def iter_linears(model: ToyMllm):
    """Yield (name, Linear) for every projection, in a fixed order."""
    yield "vision_embed", model.vision_embed
    for i, blk in enumerate(model.vision_blocks):
        for tag in BLOCK_LINEARS:
            yield f"vision.{i}.{tag}", getattr(blk, tag)
    yield "projector", model.projector
    yield "text_embed", model.text_embed
    for i, blk in enumerate(model.llm_blocks):
        for tag in BLOCK_LINEARS:
            yield f"llm.{i}.{tag}", getattr(blk, tag)
    yield "head", model.head


def iter_norms(model: ToyMllm):
    for i, blk in enumerate(model.vision_blocks):
        yield f"vision.{i}.attn_norm", blk.attn_norm
        yield f"vision.{i}.mlp_norm", blk.mlp_norm
    yield "vision_post_norm", model.vision_post_norm
    for i, blk in enumerate(model.llm_blocks):
        yield f"llm.{i}.attn_norm", blk.attn_norm
        yield f"llm.{i}.mlp_norm", blk.mlp_norm
    yield "llm_final_norm", model.llm_final_norm


def model_fingerprint(model: ToyMllm) -> str:
    """Stable hash of every field that changes the forward, for pairing
    calibration with a model.  An eps is hashed only where it differs from
    the NormParams default and an online_fht flag only where it is set, so
    a model with neither keeps the fingerprint of the weights alone.  The
    arrays' buffers are hashed in place, with no bytes copy."""
    h = hashlib.sha256()
    for name, lin in iter_linears(model):
        h.update(name.encode())
        h.update(np.ascontiguousarray(lin.w))
        h.update(np.ascontiguousarray(lin.b))
    for name, norm in iter_norms(model):
        h.update(name.encode())
        h.update(norm.kind.encode())
        h.update(np.ascontiguousarray(norm.params.alpha))
        h.update(np.ascontiguousarray(norm.params.beta))
        if norm.params.eps != NormParams.eps:
            h.update(f"eps={float(norm.params.eps)!r}".encode())
    for part in ("vision", "llm"):
        for i, blk in enumerate(getattr(model, f"{part}_blocks")):
            if blk.online_fht:
                h.update(f"{part}.{i}.online_fht".encode())
    return h.hexdigest()[:16]


# ===== forward =====


def _identity_act(name: str, x: np.ndarray, modality: np.ndarray | None) -> np.ndarray:
    return x


# GELU table: g(b) = erf(b) / 2 on b = |x| / sqrt(2) in [0, GELU_SPAN), one
# degree GELU_DEGREE polynomial per interval of width 1 / GELU_PER_UNIT.
# Beyond GELU_SPAN, erf(b) rounds to exactly 1.0 in float64, so the extra
# last interval is the constant 1/2.
_SQRT2 = np.sqrt(2.0)
GELU_SPAN = 6.0
GELU_PER_UNIT = 128
GELU_DEGREE = 5
# elements per pass, so that the pass's temporaries stay in cache
GELU_CHUNK = 1 << 15


def _gelu_table() -> np.ndarray:
    """Coefficients c[j, k] of g on interval k in the local coordinate
    t = b * GELU_PER_UNIT - k in [0, 1), lowest degree first: the
    interpolant of math.erf at the interval's Chebyshev nodes."""
    n = int(GELU_SPAN * GELU_PER_UNIT)
    j = np.arange(GELU_DEGREE + 1)
    t = 0.5 - 0.5 * np.cos((2 * j + 1) * np.pi / (2 * GELU_DEGREE + 2))
    nodes = (np.arange(n)[:, None] + t) / GELU_PER_UNIT
    g = np.array([0.5 * math.erf(b) for b in nodes.ravel()])
    coef = np.zeros((GELU_DEGREE + 1, n + 1))
    coef[:, :n] = np.linalg.solve(np.vander(t, increasing=True), g.reshape(n, -1).T)
    coef[0, n] = 0.5
    coef.setflags(write=False)
    return coef


_GELU_COEF = _gelu_table()


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact (erf) GELU, x * Phi(x) = x * (1/2 + copysign(g(b), x)) with
    b = |x| / sqrt(2), into out (a new array if None).  out must be
    C-contiguous and of x's shape; it may be x itself, as each element is
    read before it is written.

    g(b) = erf(b) / 2 comes from a table of degree-5 polynomials on 768
    intervals of width 1/128 over [0, 6), fitted once at import by
    interpolating math.erf at each interval's six Chebyshev nodes; past 6,
    g is exactly 1/2.  The table takes the erf formula's own rounded
    argument x / sqrt(2), so both approximate the same erf value.  Each
    element gathers its interval's coefficients and evaluates them by
    Horner's rule, GELU_CHUNK elements at a time.  Against
    0.5 * x * (1 + erf(x / sqrt(2))) the error is at most 4e-15 * |x|
    (measured below 5e-16 * |x|; the tests hold the bound), and
    gelu(0) = 0 exactly.  NaN propagates, gelu(inf) = inf and gelu(-inf) is
    NaN, as in the erf formula.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous of shape {x.shape}")
    flat = x.ravel()
    flat_out = out.reshape(-1)
    m = min(flat.size, GELU_CHUNK)
    # t, p, c and the interval index k of one chunk
    bufs = np.empty(m), np.empty(m), np.empty(m), np.empty(m, dtype=np.intp)
    for start in range(0, flat.size, GELU_CHUNK):
        part = slice(start, start + GELU_CHUNK)
        _gelu_chunk(flat[part], flat_out[part], *bufs)
    return out


def _gelu_chunk(xs, out, t_buf, p_buf, c_buf, k_buf) -> None:
    """gelu of the 1-D chunk xs into out, in the lane's scratch buffers."""
    n = xs.size
    t, p, c, k = t_buf[:n], p_buf[:n], c_buf[:n], k_buf[:n]
    np.divide(xs, _SQRT2, out=t)
    np.abs(t, out=t)
    # fmin maps NaN to the constant interval; x * (...) below keeps it NaN
    np.fmin(t, GELU_SPAN, out=t)
    t *= GELU_PER_UNIT
    np.copyto(k, t, casting="unsafe")
    t -= k
    # k is in range by construction; the default mode="raise" would
    # also copy every gather through a buffer
    np.take(_GELU_COEF[GELU_DEGREE], k, out=p, mode="clip")
    for j in range(GELU_DEGREE - 1, -1, -1):
        p *= t
        p += np.take(_GELU_COEF[j], k, out=c, mode="clip")
    np.copysign(p, xs, out=p)
    p += 0.5
    np.multiply(xs, p, out=out)


def norm_forward(norm: Norm, x: np.ndarray) -> np.ndarray:
    if norm.kind == LAYER_KIND:
        return layer_norm(x, norm.params)
    return rms_norm(x, norm.params)


def block_forward(
    name: str,
    block: Block,
    x: np.ndarray,
    n_heads: int,
    plan: AttentionPlan,
    positions: np.ndarray | None,
    rope: tuple | None = None,
    modality: np.ndarray | None = None,
    act_fn: Callable = _identity_act,
) -> np.ndarray:
    """One pre-norm transformer block over a (tokens, d_model) input, with
    the forward's attention plan and, in the LLM blocks, its rotary
    positions and their rope_tables.  act_fn maps ("<name>.input", input,
    modality) to the input the block runs on, whole.

    Everything else but attention's group products is row-wise, and runs
    per range of lanes.halves: two row halves on the two lanes from its
    floor, else all rows at once.  On each range's lane, attention's
    prologue takes the attention norm of its rows, and its epilogue hands
    them to mlp: the residual, mlp_norm, w_up, GELU, the online FHT and
    w_down (or the split plan), then the second residual."""
    x = act_fn(f"{name}.input", x, modality)
    y = np.empty_like(x)

    def mlp(rows: slice, attn: np.ndarray) -> None:
        xr = x[rows] + attn
        h = norm_forward(block.mlp_norm, xr)
        # one d_ff buffer: the bias add, GELU and the online FHT write into it
        u = matmul(h, block.w_up.w)
        u += block.w_up.b
        gelu(u, out=u)
        if block.online_fht:
            fht(u, axis=1, out=u)
        if block.split is not None:
            down = rms_forward(u, block.split)
        else:
            down = matmul(u, block.w_down.w)
        y[rows] = xr + down + block.w_down.b

    attention_forward(
        x,
        block.wq.w, block.wq.b,
        block.wk.w, block.wk.b,
        block.wv.w, block.wv.b,
        block.wo.w, block.wo.b,
        n_heads=n_heads,
        plan=plan,
        positions=positions if block.rope else None,
        rope=rope if block.rope else None,
        rows=lanes.halves(x.shape[0]),
        pre=lambda xr: norm_forward(block.attn_norm, xr),
        post=mlp,
    )
    return y


def vision_encode(
    model: ToyMllm,
    rows: np.ndarray,
    act_fn: Callable = _identity_act,
    lengths: list[int] | None = None,
) -> np.ndarray:
    """Visual token rows through embed, blocks, final norm, projector.

    lengths splits rows into the visual rows of each sample of a pack
    (None: one sample); attention is bidirectional within each sample.
    embed_tokens has checked rows and lengths.
    """
    cfg = model.config
    plan = build_attention_plan([rows.shape[0]] if lengths is None else lengths)
    x = matmul(rows, model.vision_embed.w) + model.vision_embed.b
    for i, blk in enumerate(model.vision_blocks):
        x = block_forward(f"vision.{i}", blk, x, cfg.n_heads, plan, None, act_fn=act_fn)
    x = norm_forward(model.vision_post_norm, x)
    x = matmul(x, model.projector.w) + model.projector.b
    return x


def embed_tokens(
    model: ToyMllm,
    sample: np.ndarray,
    modality: np.ndarray,
    act_fn: Callable = _identity_act,
    lengths: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Per-token embedding: the visual rows of every sample of the pack
    via one vision pass, text rows via the text projection, reassembled in
    original order.

    model_forward enters here, and this is where its inputs are checked,
    once: sample 2-D, d_model wide and finite, modality one tag per row
    (check_tags), lengths fitting the rows (pack_lengths).  Errors name the
    field and the first bad row.  Returns the embedded rows with the
    checked int64 tags and lengths list.
    """
    sample = check_finite(as_tensor(sample), "sample")
    if sample.shape[1] != model.config.d_model:
        raise ValueError(
            f"sample width {sample.shape[1]} != model d_model {model.config.d_model}"
        )
    modality = check_tags(modality, sample.shape[0])
    lengths = pack_lengths(lengths, sample.shape[0])
    out = np.zeros((sample.shape[0], model.config.d_model))
    is_vis = modality == VISUAL
    vis_idx = np.flatnonzero(is_vis)
    txt_idx = np.flatnonzero(modality == TEXT)
    if vis_idx.size:
        starts = np.cumsum([0] + lengths[:-1])
        counts = np.add.reduceat(is_vis, starts, dtype=np.int64)
        out[vis_idx] = vision_encode(
            model, sample[vis_idx], act_fn, lengths=counts[counts > 0].tolist()
        )
    if txt_idx.size:
        out[txt_idx] = matmul(sample[txt_idx], model.text_embed.w) + model.text_embed.b
    return out, modality, lengths


def llm_stack(
    model: ToyMllm,
    x: np.ndarray,
    plan: AttentionPlan,
    positions: np.ndarray,
    modality: np.ndarray,
    act_fn: Callable = _identity_act,
) -> np.ndarray:
    """LLM blocks, final norm, head over an already-embedded sequence or
    pack, with its attention plan, rotary positions and modality tags.  The
    output check is the forward's only one: a NaN or inf made inside the
    forward, such as by an overflowing score product, reaches the rows that
    depend on it."""
    cfg = model.config
    rope = rope_tables(cfg.d_model // cfg.n_heads, cfg.n_heads, positions)
    for i, blk in enumerate(model.llm_blocks):
        x = block_forward(
            f"llm.{i}", blk, x, cfg.n_heads, plan, positions, rope, modality, act_fn
        )
    x = norm_forward(model.llm_final_norm, x)
    x = matmul(x, model.head.w) + model.head.b
    return check_finite(x, "model output")


def model_forward(
    model: ToyMllm,
    sample: np.ndarray,
    modality: np.ndarray,
    act_fn: Callable = _identity_act,
    lengths: list[int] | None = None,
) -> np.ndarray:
    """Embed sample, then run the LLM stack; output rows come back in the
    original order.

    sample may be a pack: the rows of several samples stacked in order,
    with their row counts in lengths (None: one sequence).  Row-wise steps
    run once over the pack; each sample attends only to itself, from
    position 0, so its rows match its lone forward up to the rounding of a
    taller GEMM.  The LLM rows run visual-first across the whole pack
    (build_aifs_plan), so the pack's visual rows form one prefix and each
    static modality grid meets one contiguous segment.  Attention gathers
    its rows into position order, on the plan of each sample's natural
    positions, and its output back, so the output is bit for bit that of
    running the rows in their natural order.  act_fn(name, x, modality)
    sees every block input, with the tags of x's rows in the order they
    run (None in the vision blocks).
    """
    with lanes.held():
        x, modality, lengths = embed_tokens(model, sample, modality, act_fn, lengths)
        positions = np.concatenate([np.arange(n) for n in lengths])
        plan = build_attention_plan(lengths, positions)
        perm = build_aifs_plan(modality)
        plan = replace(plan, perm=perm, inverse=np.argsort(perm))
        out = np.empty_like(x)
        out[perm] = llm_stack(model, x[perm], plan, positions[perm], modality[perm], act_fn)
        return out


# ===== file round trip =====


def model_to_dict(model: ToyMllm) -> dict:
    """The model as a model file: its sections (model_sections) and their
    fingerprint, which model_from_dict checks."""
    return model_sections(model) | {"fingerprint": model_fingerprint(model)}


def model_sections(model: ToyMllm) -> dict:
    """The config, tensors, norms and flags of a model file, without its
    fingerprint: a qmodel stores these, and its calibration holds the
    fingerprint.  A model file stores no split plan, so a model whose
    blocks hold one (a quantized model's) is refused, naming the first
    such block: written without it, it would load as a different model."""
    for part, blks in (("vision", model.vision_blocks), ("llm", model.llm_blocks)):
        for i, blk in enumerate(blks):
            if blk.split is not None:
                raise ValueError(
                    f"block {part}.{i} holds a split plan, which a model file cannot store"
                )
    tensors = {}
    for name, lin in iter_linears(model):
        tensors[f"{name}.w"] = fileio.tensor_to_b64(lin.w)
        tensors[f"{name}.b"] = fileio.tensor_to_b64(lin.b[None, :])
    norms = {}
    for name, norm in iter_norms(model):
        norms[name] = {
            "kind": norm.kind,
            "alpha": fileio.tensor_to_b64(norm.params.alpha[None, :]),
            "beta": fileio.tensor_to_b64(norm.params.beta[None, :]),
            "eps": norm.params.eps,
        }
    flags = {
        "online_fht": {
            f"vision.{i}": blk.online_fht for i, blk in enumerate(model.vision_blocks)
        }
        | {f"llm.{i}": blk.online_fht for i, blk in enumerate(model.llm_blocks)},
    }
    return {
        "config": model.config.to_dict(),
        "tensors": tensors,
        "norms": norms,
        "flags": flags,
    }


def _file_tensor(text, shape: tuple, name: str) -> np.ndarray:
    """A finite model-file tensor of this shape; every error names it."""
    try:
        a = fileio.tensor_from_b64(text)
    except ValueError as exc:
        raise ValueError(f"model file tensor {name}: {exc}") from None
    if a.shape != shape:
        raise ValueError(
            f"model file tensor {name} has shape {a.shape}, the config needs {shape}"
        )
    return a


def model_from_dict(d: dict) -> ToyMllm:
    """The model of a model file.  Every tensor is checked on load against
    the file's config, so a wrong or non-finite one fails here, by name,
    and not in a forward.  A fingerprint is hashed and checked only where
    the file holds one: a qmodel's float model holds none, as its
    calibration's fingerprint is checked against it on load."""
    # A model file carries no kind tag; every other artifact does.
    fileio.require(d, dict, "model file")
    if "kind" in d:
        raise ValueError(f"not a model file (kind={d['kind']!r})")
    missing = [k for k in ("config", "tensors", "norms", "flags") if k not in d]
    if missing:
        raise ValueError(f"not a model file: missing sections {missing}")
    for key in ("config", "tensors", "norms", "flags"):
        fileio.require(d[key], dict, f"model file section {key!r}")
    unknown = sorted(set(d["config"]) - {f.name for f in fields(ToyMllmConfig)})
    if unknown:
        raise ValueError(f"model file config has unknown keys {unknown}")
    with fileio.keys_required("model file"):
        cfg = ToyMllmConfig(**d["config"])
        online_fht = fileio.require(d["flags"]["online_fht"], dict, "model file flag 'online_fht'")
        for key, value in online_fht.items():
            if not isinstance(value, bool):
                raise ValueError(
                    f"model file flag online_fht[{key!r}] must be a bool, got {value!r}"
                )
        blocks_of_config = {
            f"{part}.{i}"
            for part in ("vision", "llm")
            for i in range(getattr(cfg, f"{part}_blocks"))
        }
        if set(online_fht) != blocks_of_config:
            raise ValueError(
                "model file flag 'online_fht' must name exactly the config's blocks: "
                f"missing {sorted(blocks_of_config - set(online_fht))}, "
                f"extra {sorted(set(online_fht) - blocks_of_config)}"
            )

        d_model, d_ff = cfg.d_model, cfg.d_ff
        # (d_in, d_out) of each block linear
        shapes = {tag: (d_model, d_model) for tag in BLOCK_LINEARS} | {
            "w_up": (d_model, d_ff), "w_down": (d_ff, d_model)
        }

        def lin(name: str, d_in: int = d_model, d_out: int = d_model) -> Linear:
            return Linear(
                w=_file_tensor(d["tensors"][f"{name}.w"], (d_in, d_out), f"{name}.w"),
                b=_file_tensor(d["tensors"][f"{name}.b"], (1, d_out), f"{name}.b")[0],
            )

        def norm(name: str) -> Norm:
            nd = fileio.require(d["norms"][name], dict, f"model file norm {name!r}")
            alpha, beta = (
                _file_tensor(nd[key], (1, d_model), f"{name}.{key}")[0]
                for key in ("alpha", "beta")
            )
            try:
                return Norm(kind=nd["kind"], params=NormParams(alpha, beta, eps=nd["eps"]))
            except ValueError as exc:
                raise ValueError(f"model file norm {name}: {exc}") from None

        def blocks(part: str, count: int, rope: bool) -> list:
            return [
                Block(
                    attn_norm=norm(f"{part}.{i}.attn_norm"),
                    mlp_norm=norm(f"{part}.{i}.mlp_norm"),
                    rope=rope,
                    online_fht=online_fht[f"{part}.{i}"],
                    **{tag: lin(f"{part}.{i}.{tag}", *shapes[tag]) for tag in BLOCK_LINEARS},
                )
                for i in range(count)
            ]

        model = ToyMllm(
            config=cfg,
            vision_embed=lin("vision_embed"),
            vision_blocks=blocks("vision", cfg.vision_blocks, rope=False),
            vision_post_norm=norm("vision_post_norm"),
            projector=lin("projector"),
            text_embed=lin("text_embed"),
            llm_blocks=blocks("llm", cfg.llm_blocks, rope=True),
            llm_final_norm=norm("llm_final_norm"),
            head=lin("head"),
        )
    if "fingerprint" in d:
        actual = model_fingerprint(model)
        if d["fingerprint"] != actual:
            raise ValueError(
                f"model file fingerprint {d['fingerprint']} does not match content {actual}"
            )
    return model
