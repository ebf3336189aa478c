"""Outlier-row detection and split execution for rotated down-projections.

Rotating a weight whose columns share a nonzero mean concentrates that mass
into the first output row (the uniform row of H).  Detection runs on the
weight BEFORE rotation: a column j triggers when sqrt(n) * mean(w[:, j])
exceeds the signed column maximum, meaning the rotated row-0 entry would
become the new extreme of that column.  Triggered layers route row 0 of the
rotated weight through a separate vector product with its own scale so the
main kernel's per-channel scales are not stretched by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hadamard import fht
from .numerics import as_tensor, matmul
from .quantizer import (
    Granularity,
    QuantParams,
    compute_params_absmax,
    fake_quant,
)


def detect_outliers(w: np.ndarray) -> list[int]:
    """Columns whose rotated first-row entry would dominate the column.

    Args:
        w: pre-rotation weight of shape (n, m), rows indexed by the rotated
            dimension.

    Returns:
        Sorted column indices j with sqrt(n) * mean(w[:, j]) > max_i w[i, j].
    """
    w = as_tensor(w)
    n = w.shape[0]
    projected = np.sqrt(n) * w.mean(axis=0)
    column_max = w.max(axis=0)
    return np.flatnonzero(projected > column_max).tolist()


@dataclass
class RmsSplitPlan:
    """Everything rms_forward needs for one down-projection layer.

    main_q is the main kernel, the rotated weight with row 0 zeroed when
    triggered, and split_q the split row, each fake-quantized on its grid
    and frozen when the plan is built.
    """

    layer_id: str
    triggered: bool
    columns: list[int]
    split_row: np.ndarray | None  # row 0 of the rotated weight, (m,), or None
    main_params: QuantParams
    split_params: QuantParams | None
    main_q: np.ndarray
    split_q: np.ndarray | None


def build_split_plan(
    layer_id: str,
    w_rotated: np.ndarray,
    w_original: np.ndarray,
    bits: int,
    split_bits: int | None = None,
    tol: float = 1e-8,
) -> RmsSplitPlan:
    """Detect on the pre-rotation weight and split row 0 of the rotated one.

    Args:
        w_rotated: H @ w_original, shape (n, m); verified against a fresh
            transform of w_original within tol.
        w_original: the same weight before rotation.
        bits: grid width for the main kernel (per output channel).
        split_bits: grid width for the split row; defaults to bits.  A wider
            grid here is the higher-precision split option.
        tol: max deviation allowed in the rotation consistency check.

    Returns:
        RmsSplitPlan with frozen quantization params and fake-quantized
        weights for both kernels.
    """
    w_rotated = as_tensor(w_rotated)
    w_original = as_tensor(w_original)
    if w_rotated.shape != w_original.shape:
        raise ValueError(
            f"{layer_id}: rotated shape {w_rotated.shape} != original shape {w_original.shape}"
        )
    err = float(np.abs(w_rotated - fht(w_original, axis=0)).max())
    if err > tol:
        raise ValueError(
            f"{layer_id}: rotated weight is not the transform of the original "
            f"(max deviation {err:.3e} > {tol:.1e})"
        )
    columns = detect_outliers(w_original)
    triggered = len(columns) > 0

    main = w_rotated.copy()
    split_row = None
    split_params = None
    split_q = None
    split_bits = bits if split_bits is None else split_bits
    if triggered:
        split_row = main[0, :].copy()
        main[0, :] = 0.0
        split_params = compute_params_absmax(
            split_row[None, :], split_bits, Granularity.PER_TENSOR, symmetric=True
        )
        split_q = fake_quant(split_row[None, :], split_params)[0]
    # Weight grids are per output channel; channels are columns of the
    # (in, out) layout, hence the transpose.
    main_params = compute_params_absmax(
        main.T, bits, Granularity.PER_CHANNEL, symmetric=True
    )
    main_q = np.ascontiguousarray(fake_quant(main.T, main_params).T)
    return RmsSplitPlan(
        layer_id=layer_id,
        triggered=triggered,
        columns=columns,
        split_row=split_row,
        main_params=main_params,
        split_params=split_params,
        main_q=main_q,
        split_q=split_q,
    )


def rms_forward(x: np.ndarray, plan: RmsSplitPlan) -> np.ndarray:
    """Down-projection forward through a split plan.

    Computes x @ main + x[:, 0] (x) split_row, with the main kernel and the
    split row taken fake-quantized on their own grids: the plan's frozen
    main_q and split_q.

    Args:
        x: rotated activations, shape (t, n), n the plan's input width.
        plan: split plan for this layer.

    Returns:
        Output of shape (t, m).
    """
    out = matmul(x, plan.main_q)
    if plan.triggered:
        out += x[:, 0:1] * plan.split_q[None, :]
    return out


def compliance_ratio(plans: list[RmsSplitPlan]) -> dict:
    """Trigger statistics grouped by model part.

    The part is the first dot-separated component of each plan's layer_id
    ('vision.0.w_down' counts toward 'vision').

    Returns:
        {part: {"layers": int, "triggered": int, "ratio": float,
                "columns": {layer_id: [cols]}}}
    """
    table: dict = {}
    for plan in plans:
        part = plan.layer_id.split(".", 1)[0]
        entry = table.setdefault(
            part, {"layers": 0, "triggered": 0, "ratio": 0.0, "columns": {}}
        )
        entry["layers"] += 1
        if plan.triggered:
            entry["triggered"] += 1
            entry["columns"][plan.layer_id] = list(plan.columns)
    for entry in table.values():
        entry["ratio"] = entry["triggered"] / entry["layers"]
    return table
