"""Modality-aware static quantization and visual-first row order.

A mixed sequence interleaves visual and text token rows whose magnitudes
differ by more than an order of magnitude, so one shared static scale wrecks
the text side.  Calibration keeps a min/max per modality, and the static
grids derived from them give visual rows one scale and text rows another.
To keep those segments contiguous at runtime, the row-wise work runs
visual-first in a stable order, while attention gathers its rows back into
position order, so outputs are those of the original order bit for bit.
Every causal mask is built from one position rule: slot i may attend to
slot j iff perm[j] <= perm[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import lanes
from .numerics import (
    MASK_BLOCKED,
    MASK_FREE,
    exp_rows,
    matmul,
)
from .quantizer import (
    Granularity,
    QuantParams,
    compute_params_absmax,
    fake_quant,
)

TEXT = 0
VISUAL = 1
# Each modality's tag, by its name in calibration files.
MODALITIES = {"visual": VISUAL, "text": TEXT}


def check_tags(tags, rows: int, what: str = "modality") -> np.ndarray:
    """tags as an int64 vector of rows tags, each 0 (TEXT) or 1 (VISUAL).
    Any other count or value, 0.7 included, raises naming what and the row."""
    tags = np.asarray(tags).reshape(-1)
    if tags.shape[0] != rows:
        raise ValueError(f"{what} length {tags.shape[0]} != token count {rows}")
    ok = np.isin(tags, (TEXT, VISUAL))
    if not ok.all():
        row = int(ok.argmin())
        raise ValueError(
            f"{what} tag at row {row} is {tags[row].item()!r}; "
            "tags must be 0 (text) or 1 (visual)"
        )
    return tags.astype(np.int64)


@dataclass
class ModalityLayout:
    """Per-token modality tags for one sequence, 0 text / 1 visual."""

    modality: np.ndarray

    def __post_init__(self):
        tags = np.asarray(self.modality).reshape(-1)
        if tags.shape[0] == 0:
            raise ValueError("layout must contain at least one token")
        self.modality = check_tags(tags, tags.shape[0], "layout")

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


def build_aifs_plan(tags: np.ndarray) -> np.ndarray:
    """Visual-first stable reorder of checked tags (check_tags): visual
    tokens keep their relative order, then text tokens keep theirs.

    Returns perm: perm[i] is the original index of the token in reordered
    slot i.  The name is kept because the benchmark traces it.
    """
    return np.concatenate(
        [np.flatnonzero(tags == VISUAL), np.flatnonzero(tags == TEXT)]
    ).astype(np.int64)


# ===== masks =====


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
    is the one causal mask builder of the forward, called by
    build_attention_plan once per sample on natural positions, as
    attention runs in position order; the tests pass it reorders too.  The
    name is kept because the benchmark traces it.
    """
    if length < 1:
        raise ValueError(f"mask length must be >= 1, got {length}")
    perm = np.asarray(perm, dtype=np.int64).reshape(-1)
    if perm.shape[0] != length or not np.array_equal(np.sort(perm), np.arange(length)):
        raise ValueError(f"perm must be a permutation of 0..{length - 1}")
    return np.where(_causal_free(perm), MASK_FREE, MASK_BLOCKED)


# ===== rotary phases =====


# Rotary frequency base: pair t of a d-wide head turns by
# position * ROPE_BASE^(-2t/d).
ROPE_BASE = 10000.0


def _rope_tables(d: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every (token, pair) angle for a d-wide head, d even."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1)
    freqs = ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    ang = positions[:, None] * freqs[None, :]
    return np.cos(ang), np.sin(ang)


def rope_tables(d: int, n_heads: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every (token, pair) angle for n_heads d-wide heads
    side by side, (tokens, n_heads * d / 2) each: every head turns its
    pairs by the same angles.  A forward builds them once for all its
    blocks."""
    c, s = _rope_tables(d, positions)
    return np.tile(c, n_heads), np.tile(s, n_heads)


def _rotate_pairs(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    x1, x2 = x[:, 0::2], x[:, 1::2]
    out = np.empty(x.shape)
    out[:, 0::2] = x1 * c - x2 * s
    out[:, 1::2] = x1 * s + x2 * c
    return out


def rope_rotate(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotate adjacent feature pairs of one head by position-dependent angles.

    Pair t of a d-wide head turns by positions * ROPE_BASE^(-2t/d).
    Position 0 is the identity.

    Args:
        x: head tensor of shape (tokens, d), d even.
        positions: integer positions, shape (tokens,).

    Returns:
        Rotated tensor, same shape.
    """
    if x.shape[1] % 2 != 0:
        raise ValueError(f"head dimension must be even for pairwise rotation, got {x.shape[1]}")
    c, s = _rope_tables(x.shape[1], positions)
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


@dataclass
class AttentionPlan:
    """(rows, cols, start, blocked) of each stacked product over a pack:
    slices for one tile, or index arrays (G, n) and (G, band) for G stacked
    short samples.  blocked is None when the whole band is free; otherwise
    it is the boolean blocked tile, (n, w) or (G, n, w), of the band's
    columns start .. start + w, the first to the last one that holds a
    blocked entry.  areas holds each group's score entries per head.  The
    rows attention takes run in the order perm (slot i holds position
    perm[i]), a slice when that is position order."""

    tokens: int
    groups: list
    areas: list
    perm: np.ndarray | slice = field(default_factory=lambda: slice(None))


def _blocked_band(tile: np.ndarray) -> tuple[int, np.ndarray | None]:
    """(start, blocked) of a boolean blocked tile over a column band."""
    hit = tile.any(axis=tuple(range(tile.ndim - 1)))
    if not hit.any():
        return 0, None
    c0 = int(hit.argmax())
    c1 = hit.shape[0] - int(hit[::-1].argmax())
    return c0, np.ascontiguousarray(tile[..., c0:c1])


def build_attention_plan(lengths: list[int], positions: np.ndarray | None = None) -> AttentionPlan:
    """The plan of a pack of samples with these row counts: the one place
    the forward builds attention masks.

    positions=None makes every sample bidirectional (the vision blocks).
    Otherwise each sample's slice of positions, a permutation of 0..n-1,
    gives its causal mask by permuted_mask_oracle's rule.  Each query tile
    gets the column band from the first to one past the last column any of
    its rows may attend to.  Samples of at most ATTENTION_TILE_ROWS rows are
    one tile each, stacked by tile shape; a longer sample's tiles stay
    apart, as stacking them would gather whole key bands.  A tile alone in
    its group is addressed by slices.
    """
    tokens = sum(lengths)
    if positions is not None:
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        if positions.shape[0] != tokens:
            raise ValueError(f"positions cover {positions.shape[0]} rows, the samples {tokens}")
    stacks = []  # members of one product: (first row, first column, blocked tile)
    short: dict = {}  # (rows, band) -> members
    offset = 0
    for n in lengths:
        if positions is None:
            blocked = np.zeros((n, n), dtype=bool)
        else:
            blocked = permuted_mask_oracle(positions[offset : offset + n], n) == MASK_BLOCKED
        # seen[t, j]: some row of tile t may attend to column j
        starts = np.arange(0, n, ATTENTION_TILE_ROWS)
        seen = np.logical_or.reduceat(~blocked, starts)
        lo = seen.argmax(axis=1)
        hi = n - seen[:, ::-1].argmax(axis=1)
        for r0, c0, c1 in zip(starts.tolist(), lo.tolist(), hi.tolist()):
            tile = blocked[r0 : r0 + ATTENTION_TILE_ROWS, c0:c1]
            member = (offset + r0, offset + c0, tile)
            if n <= ATTENTION_TILE_ROWS:
                short.setdefault(tile.shape, []).append(member)
            else:
                stacks.append([member])
        offset += n
    groups, areas = [], []
    for members in stacks + list(short.values()):
        row, col, tile = members[0]
        n, band = tile.shape
        if len(members) == 1:
            rows, cols = slice(row, row + n), slice(col, col + band)
        else:
            first = np.array([(row, col) for row, col, _ in members])
            rows, cols = first[:, :1] + np.arange(n), first[:, 1:] + np.arange(band)
            tile = np.stack([tile for *_, tile in members])
        groups.append((rows, cols, *_blocked_band(tile)))
        areas.append(tile.size)
    return AttentionPlan(tokens, groups, areas)


def _take(a: np.ndarray, index, axis: int) -> np.ndarray:
    """A view for a slice; for indices a C-ordered take (a[:, idx] lays k out transposed)."""
    if isinstance(index, slice):
        return a[(slice(None),) * axis + (index,)]
    return np.take(a, index, axis=axis)


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
    plan: AttentionPlan,
    positions: np.ndarray | None = None,
    rope: tuple | None = None,
    rows: list | None = None,
    pre: Callable | None = None,
    post: Callable | None = None,
) -> np.ndarray | None:
    """Multi-head attention over a pre-normalized input.

    x may be one sequence or a pack: several samples' rows stacked in order.
    plan, built once per forward and shared by every block, never crosses
    a sample.  x, positions and the output run in plan.perm's order.
    positions=None skips rotary phases (the bidirectional vision blocks);
    rope may carry their rope_tables, built once for all blocks.

    The row-wise work runs per range of rows (rows: a list of slices, all
    rows at once by default), each range one lanes.share item.  The
    prologue projects q, k and v, rotates q and k, scales q by
    1/sqrt(d_head) (exact for a d_head that is a power of 4), and copies
    all three head-major into position order.  Each group of the plan then
    runs q.k^T, exp_rows and P.V for all heads and samples as stacked
    products over its column band only: the columns outside it are
    blocked for every row and would get exactly zero probability.  A
    causal mask thus skips about half the score block, and a free mask
    nothing.  Blocked entries inside the band never reach exp, and each
    row is divided by its sum after P.V, over d_head columns instead of
    the band.  The scores of every group go into one buffer, sized for the
    largest group; from lanes.FLOORS["attention"] score entries the groups,
    largest first, run on two lanes, each with its own buffer.  The
    epilogue merges the heads back into plan.perm's order and applies wo.

    pre, if given, maps a range's input rows to the rows attention takes
    (the block's attention norm), and post(rows, out) takes each range's
    output rows in place of the return value (the block's residual and
    MLP), both on the range's lane.

    Nothing here is checked: the operands are the forward's, checked where
    they entered it.  A non-finite q or k row meets at least its own row's
    diagonal entry, which is always free, so it makes that row's output
    NaN, for the forward's output check to catch.

    Args:
        x: input of shape (tokens, d_model).
        wq..bo: projection weights, (d_model, d_model) and (d_model,) each.
        n_heads: head count, divides d_model.
        plan: the AttentionPlan of the pack, covering tokens rows.
        positions: per-token rotary positions, or None.

    Returns:
        Attention output of shape (tokens, d_model), pre-residual, or None
        with post.
    """
    tokens, d = x.shape
    d_head = d // n_heads
    rows = [slice(0, tokens)] if rows is None else rows
    if positions is not None and rope is None:
        rope = rope_tables(d_head, n_heads, positions)
    # head-major, in position order: each range writes its rows' slots.
    # out is made before any range's q, k and v are freed: made after,
    # it moved a packed evaluate's peak RSS by ~4 MB at times
    qh, vh, out = (np.empty((n_heads, tokens, d_head)) for _ in range(3))
    kth = np.empty((n_heads, d_head, tokens))
    perm = plan.perm

    def slots(r: slice):
        return r if isinstance(perm, slice) else perm[r]

    def prologue(_, i: int) -> None:
        r = rows[i]
        h = x[r] if pre is None else pre(x[r])
        q = matmul(h, wq) + bq
        k = matmul(h, wk) + bk
        v = matmul(h, wv) + bv
        if rope is not None:
            c, s = rope[0][r], rope[1][r]
            q = _rotate_pairs(q, c, s)
            k = _rotate_pairs(k, c, s)
        q *= 1.0 / np.sqrt(d_head)
        heads = (q.shape[0], n_heads, d_head)
        at = slots(r)
        qh[:, at] = q.reshape(heads).transpose(1, 0, 2)
        kth[:, :, at] = k.reshape(heads).transpose(1, 2, 0)
        vh[:, at] = v.reshape(heads).transpose(1, 0, 2)

    lanes.share("block", tokens, len(rows), prologue)
    areas = plan.areas
    # largest first, so that the last groups claimed are the smallest
    order = sorted(range(len(areas)), key=lambda i: -areas[i])
    lanes.share(
        "attention",
        n_heads * sum(areas),
        len(order),
        lambda buf, i: _attend(plan.groups[order[i]], qh, kth, vh, out, buf),
        # one score buffer per lane, reused by each group it runs
        lambda: np.empty(n_heads * max(areas)),
    )
    # the epilogue reads out only
    del qh, kth, vh
    merged = None
    if post is None:
        merged = np.empty((tokens, d))
        post = merged.__setitem__

    def epilogue(_, i: int) -> None:
        r = rows[i]
        # the one copy that merges the heads also restores the rows' order
        post(r, matmul(out.transpose(1, 0, 2)[slots(r)].reshape(-1, d), wo) + bo)

    lanes.share("block", tokens, len(rows), epilogue)
    return merged


def _attend(group, qh, kth, vh, out, buf) -> None:
    """q.k^T, exp_rows and P.V of one plan group into out, with its
    scores in buf."""
    rows, cols, start, blocked = group
    qg = _take(qh, rows, 1)
    ktg = np.moveaxis(_take(kth, cols, 2), 1, -2)
    if qg.shape[-2] == 1:
        # numpy runs a one-row product as gemv, whose rounding depends
        # on the row stride of k: keep the stride of a copied band
        ktg = np.ascontiguousarray(ktg)
    shape = qg.shape[:-1] + ktg.shape[-1:]
    p = np.matmul(qg, ktg, out=buf[: math.prod(shape)].reshape(shape))
    sums = exp_rows(p, blocked, start)
    pv = p @ _take(vh, cols, 1)
    pv /= sums
    out[:, rows] = pv


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


def segment_params(lo: float, hi: float, bits: int, symmetric: bool) -> QuantParams:
    """The per-tensor grid covering [lo, hi]: every static activation grid
    is derived here from its calibration range."""
    probe = np.array([[lo, hi]])
    return compute_params_absmax(probe, bits, Granularity.PER_TENSOR, symmetric)


def calibrate_msq(ranges: dict, bits: int, symmetric: bool = True) -> MsqParams:
    """The two static grids of an LLM block input from its calibration
    ranges, {"visual": [lo, hi], "text": [lo, hi]}.  A modality that no
    calibration row had has no range, and gets the unit-scale sentinel
    grid."""
    visual, text = (
        segment_params(*ranges.get(key, (0.0, 0.0)), bits, symmetric) for key in MODALITIES
    )
    return MsqParams(bits, symmetric, visual, text)


def quantize_msq(
    x: np.ndarray,
    visual_rows: np.ndarray,
    params: MsqParams,
    counter: ScaleOpCounter | None = None,
) -> np.ndarray:
    """Fake-quantize a sequence with its two static segment grids.

    Rows marked in visual_rows take the visual grid, the rest the text grid,
    in one fake_quant pass with each row's scale and zero point.  Exactly
    two scale applications are counted per call, the static cost model
    this mechanism exists for.

    Args:
        x: activations, shape (tokens, d).
        visual_rows: boolean row mask, shape (tokens,), True on visual rows
            wherever they sit (a visual-first reorder makes it a prefix).
        params: calibrated segment grids.
        counter: optional scale-application counter.

    Returns:
        Fake-quantized tensor, same shape as x.
    """
    visual, text = params.visual, params.text
    grid = QuantParams(
        params.bits,
        params.symmetric,
        Granularity.PER_TOKEN,
        np.where(visual_rows, visual.scales[0], text.scales[0]),
        np.where(visual_rows, visual.zero_points[0], text.zero_points[0]),
    )
    out = fake_quant(x, grid)
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
    params = compute_params_absmax(x, bits, Granularity.PER_TOKEN, symmetric)
    if counter is not None:
        counter.bump(x.shape[0])
    return fake_quant(x, params)
