"""Deterministic float64 tensor primitives shared by every other module.

All tensors are 2-D float64 numpy arrays (exp_rows and softmax_rows also
take stacked attention scores).  The forward's kernels (matmul, the norms,
exp_rows) neither coerce nor check: their operands come checked, 2-D
float64 of matching shapes, from the forward's entry, and a NaN or inf made
in between reaches the forward's output check.  as_tensor and check_finite
serve those boundaries.  matmul delegates to BLAS, so its
summation order is the library's: results repeat within a process but may
differ in the last bits across BLAS builds.  The exact left-to-right loop
it replaced is kept in the tests as its oracle.

Additive masks use a large finite sentinel instead of -inf so that no
operation ever produces NaN.  The attention kernel never adds it: it marks
blocked scores with a boolean tile, and exp_rows writes 0.0 into them
around the exponential.  exp of the sentinel (or of -inf) is exactly 0.0
too, but numpy's vectorized exp takes a slow path for it: ≈7x the time of
an ordinary value, and a 10 % share of sentinels makes exp of a whole
array ≈4x slower.  So no blocked score is exponentiated on the forward
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Additive attention-mask values.  The blocked sentinel is finite (half the
# most negative float64) so that sums with ordinary scores stay finite, yet
# exp(sentinel - rowmax) underflows to exactly 0.0.
MASK_FREE = 0.0
MASK_BLOCKED = np.finfo(np.float64).min / 2.0


def as_tensor(x) -> np.ndarray:
    """Coerce input to a 2-D C-contiguous float64 array."""
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D tensor, got ndim={a.ndim}")
    return a


def check_finite(a: np.ndarray, what: str = "tensor") -> np.ndarray:
    """a, unchanged; raise if any entry is NaN or infinite, naming what and,
    for a 2-D a, the first row that holds one."""
    finite = np.isfinite(a)
    if not finite.all():
        if a.ndim == 2:
            what = f"{what} row {int(finite.all(axis=1).argmin())}"
        raise ValueError(f"{what} contains non-finite entries")
    return a


@dataclass
class NormParams:
    """Per-feature affine parameters for a normalization layer.

    alpha is the per-feature gain, beta the per-feature offset.  RMS-style
    normalization ignores beta.  eps must be strictly positive.
    """

    alpha: np.ndarray
    beta: np.ndarray
    eps: float = 1e-6

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64).reshape(-1)
        self.beta = np.asarray(self.beta, dtype=np.float64).reshape(-1)
        if self.alpha.shape != self.beta.shape:
            raise ValueError(
                f"alpha and beta length mismatch: {self.alpha.shape[0]} vs {self.beta.shape[0]}"
            )
        if not isinstance(self.eps, (int, float, np.integer, np.floating)) or not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps!r}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of checked 2-D float64 operands, (m, k) by (k, n), through BLAS.

    It coerces and checks nothing.  The name stays only because the
    benchmark's tracer wraps it to count the forward's products and their
    flops.  The same inputs give the same bits within one process.  The
    summation order is BLAS's, so the result matches a strict left-to-right
    accumulation only within rounding, of order k * max|a| * max|b| * eps;
    the tests keep that loop as the reference.  BLAS's rounding can also
    depend on the operands' memory layout.
    """
    return a @ b


def check_mask(mask: np.ndarray) -> None:
    """Raise unless every entry is MASK_FREE or MASK_BLOCKED and every row
    leaves at least one position free."""
    if np.any((mask != MASK_FREE) & (mask != MASK_BLOCKED)):
        raise ValueError("mask entries must be MASK_FREE or MASK_BLOCKED")
    fully_blocked = np.all(mask == MASK_BLOCKED, axis=1)
    if fully_blocked.any():
        raise ValueError(
            f"row {int(np.argmax(fully_blocked))} has every position masked"
        )


def exp_rows(
    s: np.ndarray, blocked: np.ndarray | None = None, start: int = 0
) -> np.ndarray:
    """exp(s - row max) along the last axis, in place; returns the row sums.

    blocked, if given, marks the blocked entries of columns start ..
    start + blocked.shape[-1] of s (broadcast over its leading axes); every
    other entry is free.  The row max is taken over free entries only, and
    blocked entries end as exactly 0.0 without passing through exp: they
    hold 0.0 while exp runs and are zeroed again after.  Only that column
    sub-range is written besides the in-place shift and exp.

    Every row must keep a free entry.  Finite free scores then give finite
    results: the max is one of them and adds exp(0) = 1 to its row sum.  A
    non-finite score on a free entry makes its row NaN, for the caller to
    catch; the inf - inf of the shift is expected there, so numpy does not
    warn about it.
    """
    if blocked is not None:
        sub = s[..., start : start + blocked.shape[-1]]
        np.copyto(sub, -np.inf, where=blocked)
    with np.errstate(invalid="ignore"):
        s -= s.max(axis=-1, keepdims=True)
    if blocked is not None:
        np.copyto(sub, 0.0, where=blocked)
    np.exp(s, out=s)
    if blocked is not None:
        np.copyto(sub, 0.0, where=blocked)
    return s.sum(axis=-1, keepdims=True)


def softmax_rows(s: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, in place, of already-masked scores;
    s may have any rank and is overwritten.

    This is exp_rows with no blocked tile, then the division by the row
    sums: the caller has added a mask with a free entry in every row, and
    the sentinel's exp underflows to exactly 0.0.  masked_softmax_rows
    checks what comes out.
    """
    s /= exp_rows(s)
    return s


def masked_softmax_rows(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax of scores + mask with max subtraction.

    Mask entries must be MASK_FREE or MASK_BLOCKED.  Blocked positions get
    exactly zero probability because exp underflows.  A row with every
    position blocked has no valid distribution and raises.

    Args:
        scores: attention scores, shape (m, n).
        mask: additive mask of the same shape.

    Returns:
        Row-stochastic matrix of shape (m, n).
    """
    scores = as_tensor(scores)
    mask = as_tensor(mask)
    if scores.shape != mask.shape:
        raise ValueError(f"scores shape {scores.shape} != mask shape {mask.shape}")
    check_mask(mask)
    return check_finite(softmax_rows(scores + mask), "softmax result")


def layer_norm(x: np.ndarray, params: NormParams) -> np.ndarray:
    """Per-row LayerNorm: recenter, scale by 1/sqrt(var + eps), affine.

    The variance is computed as |x|^2/d - mu^2, clamped at zero to guard the
    constant-row case where cancellation can leave a tiny negative value.
    """
    d = x.shape[1]
    mu = x.mean(axis=1, keepdims=True)
    var = np.maximum((x * x).sum(axis=1, keepdims=True) / d - mu * mu, 0.0)
    return (x - mu) / np.sqrt(var + params.eps) * params.alpha + params.beta


def rms_norm(x: np.ndarray, params: NormParams) -> np.ndarray:
    """Per-row RMS normalization: scale by 1/sqrt(mean(x^2) + eps), gain only.

    beta is carried in params for structural symmetry with layer_norm but is
    ignored, matching gain-only RMS layers.
    """
    ms = (x * x).sum(axis=1, keepdims=True) / x.shape[1]
    return x / np.sqrt(ms + params.eps) * params.alpha


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm of a 2-D tensor."""
    return float(np.sqrt((a * a).sum()))
