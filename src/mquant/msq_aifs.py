"""Modality-aware static quantization and visual-first sequence reordering.

A mixed sequence interleaves visual and text token rows whose magnitudes
differ by more than an order of magnitude, so one shared static scale wrecks
the text side.  Calibration here keeps one scale pair: one for visual rows,
one for text rows.  To keep those segments contiguous at runtime, sequences
are reordered visual-first with a stable permutation, and causality of the
ORIGINAL order is preserved by one position rule: slot i may attend to slot
j iff perm[j] <= perm[i].  Every causal mask is built from that rule.
Rotary phases travel with the tokens: each token keeps the angle of its
original position.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    MASK_BLOCKED,
    MASK_FREE,
    as_tensor,
    check_finite,
    check_mask,
    matmul,
    softmax_rows,
)
from .quantizer import (
    Granularity,
    QuantParams,
    compute_params_absmax,
    fake_quant,
)

TEXT = 0
VISUAL = 1


@dataclass
class ModalityLayout:
    """Per-token modality tags for one sequence, 0 text / 1 visual."""

    modality: np.ndarray

    def __post_init__(self):
        self.modality = np.asarray(self.modality, dtype=np.int64).reshape(-1)
        if self.modality.shape[0] == 0:
            raise ValueError("layout must contain at least one token")
        if not np.isin(self.modality, (TEXT, VISUAL)).all():
            raise ValueError("modality tags must be 0 (text) or 1 (visual)")

    def __len__(self) -> int:
        return int(self.modality.shape[0])

    @property
    def visual_count(self) -> int:
        return int((self.modality == VISUAL).sum())

    def visual_spans(self) -> list[tuple[int, int]]:
        """Maximal runs of visual tokens as inclusive (start, end) pairs."""
        spans = []
        start = None
        for i, m in enumerate(self.modality):
            if m == VISUAL and start is None:
                start = i
            elif m == TEXT and start is not None:
                spans.append((start, i - 1))
                start = None
        if start is not None:
            spans.append((start, len(self) - 1))
        return spans


def layout_from_string(text: str) -> ModalityLayout:
    """Shorthand builder: 'tvvt' means text, visual, visual, text."""
    tags = []
    for ch in text:
        if ch == "t":
            tags.append(TEXT)
        elif ch == "v":
            tags.append(VISUAL)
        else:
            raise ValueError(f"layout characters must be 't' or 'v', got {ch!r}")
    return ModalityLayout(np.array(tags))


def build_aifs_plan(layout: ModalityLayout) -> np.ndarray:
    """Visual-first stable reorder: visual tokens keep their relative order,
    then text tokens keep theirs.

    Returns perm: perm[i] is the original index of the token in reordered
    slot i, and also its rotary position.  The name is kept because the
    benchmark traces it.
    """
    tags = layout.modality
    return np.concatenate(
        [np.flatnonzero(tags == VISUAL), np.flatnonzero(tags == TEXT)]
    ).astype(np.int64)


# ===== masks =====


def standard_causal_mask(length: int) -> np.ndarray:
    """Lower-triangular additive mask for the natural token order."""
    if length < 1:
        raise ValueError(f"mask length must be >= 1, got {length}")
    return np.where(_causal_free(np.arange(length)), MASK_FREE, MASK_BLOCKED)


def _causal_free(positions: np.ndarray) -> np.ndarray:
    """The position rule: slot i sees slot j iff positions[j] <= positions[i]."""
    return positions[None, :] <= positions[:, None]


def unified_causal_mask(m: int, n: int, length: int) -> np.ndarray:
    """Closed-form mask for a visual-first reorder of one visual span.

    This is the paper's closed form.  The forward does not call it: it
    builds every mask from the position rule (permuted_mask_oracle), and
    acceptance test 1 certifies that this form equals that rule on every
    single-span layout up to length 32.

    The sequence originally holds one contiguous visual span at positions
    [m, n] (inclusive, zero-based).  After the reorder, slot i is unmasked at
    slot j when:

        i <= n - m       (visual rows):   j <= i  or  n - m < j <= n
        n - m < i <= n   (earlier text):  n - m < j <= i
        i > n            (later text):    j <= i

    An empty span, encoded as n == m - 1, degrades to the standard causal
    mask through the same three cases.

    Args:
        m: original start of the visual span, 0 <= m <= length.
        n: original end of the visual span, m - 1 <= n < length.
        length: sequence length.

    Returns:
        Additive mask of shape (length, length).
    """
    if length < 1:
        raise ValueError(f"mask length must be >= 1, got {length}")
    if not (0 <= m <= length):
        raise ValueError(f"span start {m} outside [0, {length}]")
    if not (m - 1 <= n < length):
        raise ValueError(f"span end {n} outside [{m - 1}, {length - 1}]")
    width = n - m
    free = _causal_free(np.arange(length))
    free[width + 1 : n + 1, : width + 1] = False  # earlier text: no visual slot
    free[: width + 1, width + 1 : n + 1] = True  # visual rows: all earlier text
    return np.where(free, MASK_FREE, MASK_BLOCKED)


def permuted_mask_oracle(perm: np.ndarray, length: int) -> np.ndarray:
    """Causal mask of the order perm: slot i sees slot j iff perm[j] <= perm[i].

    perm[i] is the original position of the token in slot i, so this is the
    causal mask of the original order, carried along with the tokens.  It
    is the one mask builder of the LLM forward, for the natural order
    (perm = arange) and for any visual-first reorder, however many visual
    spans it has.  The name is kept because the benchmark traces it.
    """
    if length < 1:
        raise ValueError(f"mask length must be >= 1, got {length}")
    perm = np.asarray(perm, dtype=np.int64).reshape(-1)
    if perm.shape[0] != length or not np.array_equal(np.sort(perm), np.arange(length)):
        raise ValueError(f"perm must be a permutation of 0..{length - 1}")
    return np.where(_causal_free(perm), MASK_FREE, MASK_BLOCKED)


# ===== rotary phases =====


def _rope_tables(
    d: int, positions: np.ndarray, tokens: int, theta_base: float
) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every (token, pair) angle for a d-wide head."""
    if d % 2 != 0:
        raise ValueError(f"head dimension must be even for pairwise rotation, got {d}")
    positions = np.asarray(positions, dtype=np.float64).reshape(-1)
    if positions.shape[0] != tokens:
        raise ValueError(
            f"positions length {positions.shape[0]} != token count {tokens}"
        )
    freqs = theta_base ** (-2.0 * np.arange(d // 2) / d)
    ang = positions[:, None] * freqs[None, :]
    return np.cos(ang), np.sin(ang)


def _rotate_pairs(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    x1, x2 = x[:, 0::2], x[:, 1::2]
    out = np.empty(x.shape)
    out[:, 0::2] = x1 * c - x2 * s
    out[:, 1::2] = x1 * s + x2 * c
    return out


def rope_rotate(
    x: np.ndarray, positions: np.ndarray, theta_base: float = 10000.0
) -> np.ndarray:
    """Rotate adjacent feature pairs of one head by position-dependent angles.

    Pair t of a d-wide head turns by positions * theta_base^(-2t/d).
    Position 0 is the identity.

    Args:
        x: head tensor of shape (tokens, d), d even.
        positions: integer positions, shape (tokens,).
        theta_base: frequency base.

    Returns:
        Rotated tensor, same shape.
    """
    x = as_tensor(x)
    c, s = _rope_tables(x.shape[1], positions, x.shape[0], theta_base)
    return _rotate_pairs(x, c, s)


# ===== attention primitive =====

# Query rows per attention tile.  32, 64 and 128 rows time alike on an
# L=1024 forward; a sequence of at most this many tokens is a single tile.
ATTENTION_TILE_ROWS = 64


def pack_lengths(lengths, rows: int) -> list[int]:
    """Per-sample row counts of a pack, checked against its row count.

    A pack is the rows of several samples stacked in order; lengths says
    where each one ends.  None means one sequence of all rows.
    """
    if lengths is None:
        return [rows]
    lengths = list(lengths)
    if not lengths or not all(
        isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n > 0
        for n in lengths
    ):
        raise ValueError(f"lengths must be positive ints, got {lengths}")
    lengths = [int(n) for n in lengths]
    if sum(lengths) != rows:
        raise ValueError(f"lengths sum to {sum(lengths)}, but the pack has {rows} rows")
    return lengths


def _attention_tiles(masks: list, tokens: int) -> list:
    """(query rows, key band, mask tile) of every query tile of every sample.

    Each sample's mask is checked once.  Its query rows are cut into tiles
    of ATTENTION_TILE_ROWS from the sample's first row, each with a column
    band from the first to one past the last column that any of its rows
    may attend to, so no tile or band ever leaves its sample.
    """
    sizes = [m.shape[0] for m in masks]
    if any(m.shape != (n, n) for m, n in zip(masks, sizes)) or sum(sizes) != tokens:
        got = [m.shape for m in masks]
        raise ValueError(
            f"mask shape {got[0] if len(got) == 1 else got} does not cover "
            f"({tokens}, {tokens}) with square per-sample blocks"
        )
    tiles = []
    offset = 0
    for m, n in zip(masks, sizes):
        check_mask(m)
        # seen[t, j]: some row of tile t may attend to column j
        starts = np.arange(0, n, ATTENTION_TILE_ROWS)
        seen = np.logical_or.reduceat(m == MASK_FREE, starts)
        lo = seen.argmax(axis=1)
        hi = n - seen[:, ::-1].argmax(axis=1)
        for r0, c0, c1 in zip(starts.tolist(), lo.tolist(), hi.tolist()):
            r1 = min(r0 + ATTENTION_TILE_ROWS, n)
            rows = slice(offset + r0, offset + r1)
            cols = slice(offset + c0, offset + c1)
            tiles.append((rows, cols, m[r0:r1, c0:c1]))
        offset += n
    return tiles


def attention_forward(
    x: np.ndarray,
    wq: np.ndarray,
    bq: np.ndarray,
    wk: np.ndarray,
    bk: np.ndarray,
    wv: np.ndarray,
    bv: np.ndarray,
    wo: np.ndarray,
    bo: np.ndarray,
    n_heads: int,
    mask: np.ndarray | list,
    positions: np.ndarray | None = None,
    theta_base: float = 10000.0,
) -> np.ndarray:
    """Multi-head attention over a pre-normalized input.

    x may be one sequence or a pack: several samples' rows stacked in order,
    with one square mask per sample.  Attention never crosses a sample: the
    masks are the diagonal blocks of the pack, and the blocks between
    samples are never built or scored.  positions=None skips rotary phases
    (bidirectional vision blocks use a free mask and no positional
    rotation).  Once per call, q, k and v are projected and q and k rotated
    over the whole pack; once per sample, its mask is checked and its query
    rows are cut into tiles of ATTENTION_TILE_ROWS, each with a column band
    from the first to one past the last column that any of its rows may
    attend to.  Each head then runs the scores, mask add, softmax and P.V
    product of a tile over its band only: the columns outside it are
    blocked for every row of the tile and would get exactly zero
    probability.  A causal mask thus skips about half the score block, and
    a free mask nothing.

    Args:
        x: input of shape (tokens, d_model).
        wq..bo: projection weights, (d_model, d_model) and (d_model,) each.
        n_heads: head count, must divide d_model.
        mask: one additive mask of shape (tokens, tokens), or a list of
            per-sample square additive masks whose sizes sum to tokens.
        positions: per-token rotary positions, or None.
        theta_base: rotary frequency base.

    Returns:
        Attention output of shape (tokens, d_model), pre-residual.
    """
    x = as_tensor(x)
    tokens, d = x.shape
    if d % n_heads != 0:
        raise ValueError(f"n_heads={n_heads} must divide d_model={d}")
    d_head = d // n_heads
    masks = mask if isinstance(mask, (list, tuple)) else [mask]
    tiles = _attention_tiles([as_tensor(m) for m in masks], tokens)
    q = matmul(x, wq) + bq
    k = matmul(x, wk) + bk
    v = matmul(x, wv) + bv
    if positions is not None:
        # every head turns its pairs by the same angles
        c, s = _rope_tables(d_head, positions, tokens, theta_base)
        c, s = np.tile(c, n_heads), np.tile(s, n_heads)
        q = _rotate_pairs(q, c, s)
        k = _rotate_pairs(k, c, s)
    kt = np.ascontiguousarray(k.T)
    out = np.empty_like(x)
    inv_sqrt = 1.0 / np.sqrt(d_head)
    for h in range(n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        qh, kth = np.ascontiguousarray(q[:, sl]), kt[sl]
        vh = np.ascontiguousarray(v[:, sl])
        for rows, cols, mask_tile in tiles:
            scores = matmul(qh[rows], kth[:, cols])
            scores *= inv_sqrt
            scores += mask_tile
            out[rows, sl] = matmul(softmax_rows(scores), vh[cols])
    return matmul(out, wo) + bo


# ===== modality-split static quantization =====


@dataclass
class ScaleOpCounter:
    """Counts activation scale applications during a forward pass."""

    scale_ops: int = 0

    def bump(self, n: int) -> None:
        self.scale_ops += n

    def reset(self) -> None:
        self.scale_ops = 0


@dataclass
class MsqParams:
    """One static per-tensor grid per modality segment."""

    bits: int
    symmetric: bool
    visual: QuantParams
    text: QuantParams


def _segment_params(lo: float, hi: float, bits: int, symmetric: bool) -> QuantParams:
    probe = np.array([[lo, hi]])
    return compute_params_absmax(probe, bits, Granularity.PER_TENSOR, symmetric)


def calibrate_msq(
    samples,
    bits: int,
    symmetric: bool = True,
) -> MsqParams:
    """Separate static scales for visual and text rows of a token stream.

    Accumulates per-modality min/max over all samples in one pass, so the
    result does not depend on sample order.  A modality absent from every
    sample gets the sentinel unit scale and a warning.

    Args:
        samples: iterable of (tensor, ModalityLayout) pairs; tensor rows are
            token activations aligned with the layout.
        bits: grid width for both segments.
        symmetric: zero-point-free grids when True.

    Returns:
        MsqParams with one PER_TENSOR grid per modality.
    """
    bounds = {VISUAL: [np.inf, -np.inf], TEXT: [np.inf, -np.inf]}
    seen = {VISUAL: 0, TEXT: 0}
    count = 0
    for tensor, layout in samples:
        tensor = check_finite(as_tensor(tensor), "calibration tensor")
        if tensor.shape[0] != len(layout):
            raise ValueError(
                f"sample has {tensor.shape[0]} rows but layout tags {len(layout)} tokens"
            )
        for modality in (VISUAL, TEXT):
            rows = tensor[layout.modality == modality]
            if rows.size:
                bounds[modality][0] = min(bounds[modality][0], float(rows.min()))
                bounds[modality][1] = max(bounds[modality][1], float(rows.max()))
                seen[modality] += rows.shape[0]
        count += 1
    if count == 0:
        raise ValueError("calibration stream is empty")

    params = {}
    names = {VISUAL: "visual", TEXT: "text"}
    for modality in (VISUAL, TEXT):
        if seen[modality] == 0:
            warnings.warn(
                f"no {names[modality]} tokens in calibration stream, "
                "using unit-scale sentinel"
            )
            params[modality] = _segment_params(0.0, 0.0, bits, symmetric)
        else:
            lo, hi = bounds[modality]
            params[modality] = _segment_params(lo, hi, bits, symmetric)
    return MsqParams(
        bits=bits, symmetric=symmetric, visual=params[VISUAL], text=params[TEXT]
    )


def quantize_msq(
    x: np.ndarray,
    visual_rows: np.ndarray,
    params: MsqParams,
    counter: ScaleOpCounter | None = None,
) -> np.ndarray:
    """Fake-quantize a sequence with its two static segment grids.

    Rows marked in visual_rows take the visual grid, the rest the text grid.
    Exactly two scale applications are counted per call, the static cost
    model this mechanism exists for.

    Args:
        x: activations, shape (tokens, d).
        visual_rows: boolean row mask, shape (tokens,), True on visual rows
            wherever they sit (a visual-first reorder makes it a prefix).
        params: calibrated segment grids.
        counter: optional scale-application counter.

    Returns:
        Fake-quantized tensor, same shape as x.
    """
    x = as_tensor(x)
    vis = np.asarray(visual_rows)
    if vis.dtype != np.bool_ or vis.shape != (x.shape[0],):
        raise ValueError(
            f"visual row mask must be bool of shape ({x.shape[0]},), "
            f"got {vis.dtype} of shape {vis.shape}"
        )
    out = np.empty_like(x)
    if vis.any():
        out[vis] = fake_quant(x[vis], params.visual)
    if not vis.all():
        out[~vis] = fake_quant(x[~vis], params.text)
    if counter is not None:
        counter.bump(2)
    return out


def quantize_dynamic_per_token(
    x: np.ndarray,
    bits: int,
    symmetric: bool = True,
    counter: ScaleOpCounter | None = None,
) -> np.ndarray:
    """Per-token dynamic baseline: one fresh scale per row, every call."""
    x = as_tensor(x)
    params = compute_params_absmax(x, bits, Granularity.PER_TOKEN, symmetric)
    if counter is not None:
        counter.bump(x.shape[0])
    return fake_quant(x, params)
