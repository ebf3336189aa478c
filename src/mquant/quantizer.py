"""Uniform affine quantization with absmax parameter selection.

Supports 4/8/16-bit grids, symmetric and asymmetric modes, and four
granularities: one scale for the whole tensor, one per row (token or output
channel), or one per contiguous column group within each row.  Rounding is
half away from zero everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import as_tensor, check_finite

SUPPORTED_BITS = (4, 8, 16)


class Granularity(Enum):
    PER_TENSOR = "per_tensor"
    PER_TOKEN = "per_token"
    PER_CHANNEL = "per_channel"
    PER_GROUP = "per_group"


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (np.round ties to even)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quant_range(bits: int, symmetric: bool) -> tuple[int, int]:
    """Integer grid limits: symmetric grids drop the most negative code."""
    if symmetric:
        return -(2 ** (bits - 1) - 1), 2 ** (bits - 1) - 1
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


@dataclass
class QuantParams:
    """Frozen scale/zero-point set for one tensor.

    scales has shape (1,) for PER_TENSOR, (rows,) for PER_TOKEN and
    PER_CHANNEL, and (rows, n_groups) for PER_GROUP.  zero_points always
    matches scales in shape and is all zero in symmetric mode.
    """

    bits: int
    symmetric: bool
    granularity: Granularity
    scales: np.ndarray
    zero_points: np.ndarray
    group_size: int | None = None

    def __post_init__(self):
        if self.bits not in SUPPORTED_BITS:
            raise ValueError(f"unsupported bit width {self.bits}, expected one of {SUPPORTED_BITS}")
        self.scales = np.asarray(self.scales, dtype=np.float64)
        self.zero_points = np.asarray(self.zero_points, dtype=np.int64)
        if self.scales.shape != self.zero_points.shape:
            raise ValueError(
                f"scales shape {self.scales.shape} != zero_points shape {self.zero_points.shape}"
            )
        if not np.all((self.scales > 0.0) & (self.scales < np.inf)):
            raise ValueError("all scales must be finite and strictly positive")
        q_min, q_max = quant_range(self.bits, self.symmetric)
        if self.zero_points.min(initial=0) < q_min or self.zero_points.max(initial=0) > q_max:
            raise ValueError(f"zero points outside [{q_min}, {q_max}]")
        if self.symmetric and np.any(self.zero_points != 0):
            raise ValueError("symmetric mode requires all zero points to be 0")
        if self.granularity is Granularity.PER_GROUP:
            if self.group_size is None or self.group_size < 1:
                raise ValueError("PER_GROUP requires a positive group_size")
            if self.scales.ndim != 2:
                raise ValueError("PER_GROUP scales must be 2-D (rows, n_groups)")
        elif self.granularity is Granularity.PER_TENSOR:
            if self.scales.shape != (1,):
                raise ValueError(f"PER_TENSOR expects a single scale, got shape {self.scales.shape}")
        else:
            if self.scales.ndim != 1:
                raise ValueError(f"{self.granularity.value} scales must be 1-D per row")

    @property
    def q_min(self) -> int:
        return quant_range(self.bits, self.symmetric)[0]

    @property
    def q_max(self) -> int:
        return quant_range(self.bits, self.symmetric)[1]


@dataclass
class QuantizedTensor:
    """Integer codes plus the params that produced them."""

    values: np.ndarray
    params: QuantParams

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int32)
        if self.values.ndim != 2:
            raise ValueError("quantized values must be 2-D")


def _slice_count(granularity: Granularity, rows: int, cols: int, group_size: int | None) -> tuple:
    if granularity is Granularity.PER_TENSOR:
        return (1,)
    if granularity in (Granularity.PER_TOKEN, Granularity.PER_CHANNEL):
        return (rows,)
    return (rows, math.ceil(cols / group_size))


def _elementwise(params: QuantParams, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Scales and zero points shaped to broadcast against a (rows, cols)
    tensor: one column for per-tensor and per-row grids, each group's value
    repeated over its columns for per-group grids."""
    g = params.granularity
    expect = _slice_count(g, rows, cols, params.group_size)
    if params.scales.shape != expect:
        raise ValueError(
            f"params cover {params.scales.shape} slices, tensor of shape "
            f"({rows}, {cols}) needs {expect}"
        )
    if g is Granularity.PER_GROUP:
        s = np.repeat(params.scales, params.group_size, axis=1)[:, :cols]
        z = np.repeat(params.zero_points, params.group_size, axis=1)[:, :cols]
        return s, z
    return params.scales.reshape(-1, 1), params.zero_points.reshape(-1, 1)


def _slice_minmax(x: np.ndarray, granularity: Granularity, group_size: int | None):
    """Per-slice (min, max) reductions laid out like the scales array."""
    rows, cols = x.shape
    if granularity is Granularity.PER_TENSOR:
        return np.array([x.min()]), np.array([x.max()])
    if granularity in (Granularity.PER_TOKEN, Granularity.PER_CHANNEL):
        return x.min(axis=1), x.max(axis=1)
    n_groups = math.ceil(cols / group_size)
    lo = np.empty((rows, n_groups))
    hi = np.empty((rows, n_groups))
    for g in range(n_groups):
        block = x[:, g * group_size : (g + 1) * group_size]
        lo[:, g] = block.min(axis=1)
        hi[:, g] = block.max(axis=1)
    return lo, hi


def compute_params_absmax(
    x: np.ndarray,
    bits: int,
    granularity: Granularity = Granularity.PER_TENSOR,
    symmetric: bool = True,
    group_size: int | None = None,
) -> QuantParams:
    """Pick scales and zero points from the min/max of each slice.

    Symmetric mode uses s = absmax / (2^(b-1) - 1) with zero point 0.
    Asymmetric mode first widens each slice range to include 0, so that 0.0
    is always exactly representable and the zero point lands inside the
    grid, then uses s = (max - min) / (q_max - q_min) and
    z = round(q_min - min/s).  All-zero slices get the sentinel s = 1,
    z = 0.  A NaN or infinite entry of x raises.

    Args:
        x: 2-D float64 tensor to cover, shape (rows, cols).
        bits: grid width, one of 4, 8, 16.
        granularity: slice layout for scales.
        symmetric: zero-point-free grid when True.
        group_size: columns per group, PER_GROUP only.

    Returns:
        QuantParams covering every slice of x.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported bit width {bits}, expected one of {SUPPORTED_BITS}")
    if granularity is Granularity.PER_GROUP and (group_size is None or group_size < 1):
        raise ValueError("PER_GROUP requires a positive group_size")
    q_min, q_max = quant_range(bits, symmetric)
    lo, hi = _slice_minmax(x, granularity, group_size)
    # min and max carry any NaN or inf of their slice, so checking them
    # checks every entry of x without another pass over it
    absmax = check_finite(np.maximum(np.abs(lo), np.abs(hi)), "calibration tensor")

    if symmetric:
        scales = absmax / q_max
        # == 0.0 rather than absmax == 0.0: a subnormal absmax can underflow
        # to a zero scale, which needs the same sentinel.
        scales = np.where(scales == 0.0, 1.0, scales)
        zeros = np.zeros_like(scales, dtype=np.int64)
    else:
        # Widening to include 0 keeps the zero point inside the grid and
        # makes 0.0 exactly representable.
        lo = np.minimum(lo, 0.0)
        hi = np.maximum(hi, 0.0)
        span = hi - lo
        scales = span / (q_max - q_min)
        degenerate = scales == 0.0
        scales = np.where(degenerate, 1.0, scales)
        zeros_f = round_half_away(q_min - lo / scales)
        zeros = np.clip(np.where(degenerate, 0.0, zeros_f), q_min, q_max).astype(np.int64)
    return QuantParams(
        bits=bits,
        symmetric=symmetric,
        granularity=granularity,
        scales=scales,
        zero_points=zeros,
        group_size=group_size if granularity is Granularity.PER_GROUP else None,
    )


def quantize(x: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Map x onto the integer grid: clamp(round(x/s) + z, q_min, q_max).

    With dequantize, the tests' oracle for fake_quant."""
    x = check_finite(as_tensor(x), "quantize input")
    s, z = _elementwise(params, x.shape[0], x.shape[1])
    q = round_half_away(x / s) + z
    q = np.clip(q, params.q_min, params.q_max)
    return QuantizedTensor(values=q.astype(np.int32), params=params)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Back to float: (q - z) * s.  With quantize, the tests' oracle for
    fake_quant."""
    rows, cols = qt.values.shape
    s, z = _elementwise(qt.params, rows, cols)
    return (qt.values.astype(np.float64) - z) * s


def fake_quant(x: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize-dequantize round trip, the simulation building block.

    One float64 buffer runs the whole chain in place: divide by s, round
    half away, add z, clip to the grid, subtract z, multiply by s.  The
    bytes equal dequantize(quantize(x, params)): every code is an integer
    held exactly, and adding z (zero included) turns a -0.0 code into the
    +0.0 that quantize's int32 cast gives.  The rounding takes its sign
    from x, which is that of x / s as s > 0.  A NaN or infinite entry of x
    raises, as the clip would turn an inf into the grid's edge code.
    """
    x = check_finite(as_tensor(x), "fake-quant input")
    s, z = _elementwise(params, x.shape[0], x.shape[1])
    q = np.divide(x, s)
    np.abs(q, out=q)
    q += 0.5
    np.floor(q, out=q)
    np.copysign(q, x, out=q)
    q += z
    np.clip(q, params.q_min, params.q_max, out=q)
    q -= z
    q *= s
    return q


# ===== serialization =====


def params_to_dict(params: QuantParams) -> dict:
    d = {
        "bits": params.bits,
        "symmetric": params.symmetric,
        "granularity": params.granularity.value,
        "scales": params.scales.reshape(-1).tolist(),
        "zero_points": params.zero_points.reshape(-1).tolist(),
    }
    if params.granularity is Granularity.PER_GROUP:
        d["group_size"] = params.group_size
        d["scales_rows"] = params.scales.shape[0]
    return d
