"""Walsh-Hadamard transforms and weight incoherence diagnostics.

The normalized Hadamard matrix here is the Sylvester construction scaled by
1/sqrt(n), so it is symmetric, orthogonal, and involutory.  Its first row is
uniform, which is what makes the first-row projection identity and the
outlier trigger below work.
"""

from __future__ import annotations

import numpy as np

from . import lanes
from .numerics import as_tensor, frobenius_norm, matmul


# elements per block of transformed vectors, so that a block's butterflies
# stay in cache
FHT_CHUNK = 1 << 15


def _check_pow2(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"size must be a positive power of two, got {n}")


def walsh_hadamard(n: int) -> np.ndarray:
    """Dense normalized Hadamard matrix of size n (power of two)."""
    _check_pow2(n)
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(n)


def fht(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Fast Hadamard transform along one axis, O(n log n).

    Equivalent to multiplying by walsh_hadamard(n) on that axis: axis=0
    computes H @ x, axis=1 computes x @ H (H is symmetric).  The axis length
    must be a power of two.  Each stage runs its butterflies as one
    vectorized add and subtract; the adds are the ones of the per-block
    loop, so the result equals it bit for bit.  The vectors run in blocks
    of about FHT_CHUNK elements, on two lanes from lanes.FLOORS["fht"]
    elements.
    """
    x = np.asarray(x, dtype=np.float64)
    vec = x.ndim == 1
    if vec:
        x = x[None, :] if axis in (1, -1) else x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got ndim={x.ndim}")
    if axis not in (0, 1, -1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    xc = x if axis == 0 else x.T  # H acts on the columns of xc
    n, vectors = xc.shape
    _check_pow2(n)
    step = max(1, FHT_CHUNK // n)
    out = np.empty(x.shape)
    oc = out if axis == 0 else out.T

    def run(_, i: int) -> None:
        part = slice(i * step, (i + 1) * step)
        oc[:, part] = _fht_columns(xc[:, part].copy())

    lanes.share("fht", xc.size, -(-vectors // step), run)
    if vec:
        out = out.reshape(-1)
    return out


def _fht_columns(work: np.ndarray) -> np.ndarray:
    """H applied to each column of a C-ordered (n, columns) array, in place."""
    n, cols = work.shape
    h = 1
    while h < n:
        # All n / 2h butterflies of this stage at once: pair[:, 0] holds the
        # top half of every block, pair[:, 1] the bottom half.
        pair = work.reshape(n // (2 * h), 2, h, cols)
        a = pair[:, 0].copy()
        b = pair[:, 1]
        pair[:, 0] += b
        np.subtract(a, b, out=pair[:, 1])
        h *= 2
    work /= np.sqrt(n)
    return work


def incoherence(w: np.ndarray) -> float:
    """mu(W) = max|W| * sqrt(m*n) / ||W||_F, the outlier concentration measure.

    Equals 1 for an all-equal matrix and sqrt(m*n) for a single spike.
    """
    w = as_tensor(w)
    fro = frobenius_norm(w)
    if fro == 0.0:
        raise ValueError("incoherence is undefined for an all-zero matrix")
    m, n = w.shape
    return float(np.abs(w).max() * np.sqrt(m * n) / fro)


def incoherence_ratio(w: np.ndarray) -> float:
    """mu(HW) / mu(W): below 1 means rotation flattened outliers.

    Because H preserves the Frobenius norm, this also equals
    max|HW| / max|W|.
    """
    w = as_tensor(w)
    _check_pow2(w.shape[0])
    return incoherence(fht(w, axis=0)) / incoherence(w)
