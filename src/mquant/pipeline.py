"""Staged quantization pipeline over the toy multimodal model.

The pipeline rewrites one working copy of the float model.  Each stage
is a plain transform: it rewrites that copy in place and returns what
else it makes (snapshots, a calibration, grids).  Each composer starts
from one copy.deepcopy of the float model, so no stage writes the float
model itself.  mquant_quantize is the one composer of all seven, and the
order is its code: rotate the LLM part, calibrate activations (through
the float weights and the still-float vision path), freeze the LLM
weights, rewrite the vision encoder's norms, rotate the vision part,
freeze its weights, then build the outlier-row split plan of every
down-projection.
calibrate_pipeline runs the first two stages, and apply_lossless_stack the
three float-equivalent ones (both rotations and the rewrite).  The stage
that picks a weight's grid freezes the weight on it, and each split plan
goes onto its block as it is built, so the working copy is the model the
quantized forward runs.  Calibration and the quantized forward both run
model.model_forward, in its one visual-first row order: calibration folds
each block input into its point's per-modality min/max there, and the
quantized forward fake-quantizes it.  Calibration and the float-equivalent
stack read no config.

A calibration holds statistics, not grids: one [lo, hi] per quantization
point (a block input, named as act_fn names it) and modality.  The
quantized model derives its static grids from them at the config's bits_a
and symmetry, so one calibration serves every activation setting.

Weight grids are plain round-to-nearest absmax; no error-compensating
sequential solver is used, and every report says so.
"""

from __future__ import annotations

import copy
import math
import time
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fileio, lanes
from .model import (
    ToyMllm,
    ToyMllmConfig,
    check_field_types,
    iter_linears,
    model_fingerprint,
    model_forward,
    model_from_dict,
    model_sections,
)
from .msq_aifs import (
    MODALITIES,
    TEXT,
    VISUAL,
    ModalityLayout,
    ScaleOpCounter,
    calibrate_msq,
    layout_from_string,
    quantize_dynamic_per_token,
    quantize_msq,
    segment_params,
)
from .norm_rewrite import preln_to_rmsnorm
from .numerics import as_tensor, check_finite, matmul
from .quantizer import (
    SUPPORTED_BITS,
    Granularity,
    compute_params_absmax,
    fake_quant,
    params_to_dict,
)
from .rms import build_split_plan, compliance_ratio
from .rotation import rotate_model_offline

SCHEMA_VERSION = 3

WEIGHT_SOLVER_NOTE = (
    "rtn-absmax: weights snapped to the nearest grid point; "
    "no error-compensating sequential solver"
)

GRANULARITIES = ("per_channel", "per_group")


@dataclass
class PipelineConfig:
    """Model config plus every quantization switch, one flat JSON object."""

    model: ToyMllmConfig = field(default_factory=ToyMllmConfig)
    bits_w: int = 8
    bits_a: int = 8
    weight_granularity: str = "per_channel"
    group_size: int = 128
    symmetric_activations: bool = True
    rms: bool = True
    split_bits: int | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.bits_w not in SUPPORTED_BITS:
            raise ValueError(f"bits_w must be one of {SUPPORTED_BITS}, got {self.bits_w}")
        if self.bits_a not in SUPPORTED_BITS:
            raise ValueError(f"bits_a must be one of {SUPPORTED_BITS}, got {self.bits_a}")
        if self.weight_granularity not in GRANULARITIES:
            raise ValueError(
                f"weight_granularity must be one of {GRANULARITIES}, "
                f"got {self.weight_granularity!r}"
            )
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.split_bits is not None and self.split_bits not in SUPPORTED_BITS:
            raise ValueError(
                f"split_bits must be one of {SUPPORTED_BITS} or null, got {self.split_bits}"
            )
        if self.split_bits is not None and not self.rms:
            raise ValueError(
                f"split_bits={self.split_bits} needs rms: with rms=false no "
                "split plan is built, so split_bits would be ignored"
            )

    @classmethod
    def _quant_keys(cls) -> list:
        return [f.name for f in fields(cls) if f.name != "model"]

    def to_dict(self) -> dict:
        return self.model.to_dict() | {k: getattr(self, k) for k in self._quant_keys()}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        fileio.require(d, dict, "config")
        model_keys = set(ToyMllmConfig().to_dict())
        quant_keys = set(cls._quant_keys())
        unknown = set(d) - model_keys - quant_keys
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        model_cfg = ToyMllmConfig(**{k: v for k, v in d.items() if k in model_keys})
        quant = {k: v for k, v in d.items() if k in quant_keys}
        return cls(model=model_cfg, **quant)

    @classmethod
    def for_model(
        cls, d: dict, model: ToyMllmConfig, what: str = "config"
    ) -> "PipelineConfig":
        """from_dict for a run on a model that comes with its own config: a
        model key that d names must agree with it instead of being dropped.
        The result carries the model's config."""
        pcfg = cls.from_dict(d)
        given, have = pcfg.model.to_dict(), model.to_dict()
        for key in sorted(set(d) & set(have)):
            if given[key] != have[key]:
                raise ValueError(
                    f"{what} {key}={given[key]!r} disagrees with the model's "
                    f"{key}={have[key]!r}"
                )
        return replace(pcfg, model=model)


# ===== synthetic data =====


def generate_synthetic_samples(
    count: int,
    length: int,
    layout_spec=None,
    seed: int = 0,
    d_model: int = 64,
) -> list:
    """Seeded mixed-modality calibration samples.

    Visual token rows draw from Uniform(-20, 10) and text rows from
    Uniform(-0.5, 0.5), the magnitude gap the modality-split scales exist
    for.  layout_spec may be None (a fresh random single visual span per
    sample, both modalities present when length > 1), a layout string like
    'tvvt', or a ModalityLayout applied to every sample.

    Returns:
        List of (tensor, ModalityLayout) pairs, tensor shape (length, d_model).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if d_model < 1:
        raise ValueError(f"d_model must be >= 1, got {d_model}")
    if isinstance(layout_spec, str):
        layout_spec = layout_from_string(layout_spec)
    if isinstance(layout_spec, ModalityLayout) and len(layout_spec) != length:
        raise ValueError(
            f"layout length {len(layout_spec)} != sample length {length}"
        )
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        if layout_spec is not None:
            layout = layout_spec
        elif length == 1:
            layout = ModalityLayout(np.array([TEXT]))
        else:
            v = int(rng.integers(1, length))
            start = int(rng.integers(0, length - v + 1))
            tags = np.full(length, TEXT)
            tags[start : start + v] = VISUAL
            layout = ModalityLayout(tags)
        rows = rng.uniform(-0.5, 0.5, size=(length, d_model))
        vis = layout.modality == VISUAL
        rows[vis] = rng.uniform(-20.0, 10.0, size=(int(vis.sum()), d_model))
        samples.append((rows, layout))
    return samples


# ===== calibration =====


def _check_header(d: dict, kind: str, what: str, keys: tuple) -> None:
    """Reject a non-object file, one of another kind or layout version, or
    one holding a key other than keys."""
    fileio.require(d, dict, f"{what} file")
    if d.get("kind") != kind:
        raise ValueError(f"not a {what} file (kind={d.get('kind')!r})")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{what} file has schema_version={d.get('schema_version')!r}, "
            f"this version reads {SCHEMA_VERSION}"
        )
    unknown = set(d) - {"schema_version", "kind", *keys}
    if unknown:
        raise ValueError(f"{what} file has unknown keys {sorted(unknown)}")


def _msq_to_dicts(msq: list) -> list:
    """LLM block grids as JSON, one {visual, text} pair per block."""
    return [
        {"visual": params_to_dict(m.visual), "text": params_to_dict(m.text)}
        for m in msq
    ]


def block_inputs(cfg: ToyMllmConfig) -> list[str]:
    """The quantization points of a model: every block input, named as
    act_fn receives it."""
    return [
        f"{part}.{i}.input"
        for part in ("vision", "llm")
        for i in range(getattr(cfg, f"{part}_blocks"))
    ]


def _check_points(points) -> dict:
    """points, the point table of a calibration file, if each point holds
    one or more ranges of the modalities it takes (a vision point: visual
    only), each a finite [lo, hi] pair of floats with lo <= hi (json writes
    every range as floats); otherwise a ValueError naming the point and
    range."""
    fileio.require(points, dict, "calibration points")
    for name, ranges in points.items():
        fileio.require(ranges, dict, f"calibration point {name!r}")
        allowed = ["visual"] if name.startswith("vision.") else list(MODALITIES)
        if not ranges or set(ranges) - set(allowed):
            raise ValueError(
                f"calibration point {name!r} holds ranges {sorted(ranges)}; "
                f"it takes one or more of {allowed}"
            )
        for key, r in ranges.items():
            what = f"calibration {name}.{key}"
            if not (isinstance(r, list) and len(r) == 2 and all(isinstance(v, float) for v in r)):
                raise ValueError(f"{what} must be a [lo, hi] pair of floats, got {r!r:.60}")
            if not all(map(math.isfinite, r)):
                raise ValueError(f"{what} must be finite, got {r!r}")
            if r[0] > r[1]:
                raise ValueError(f"{what} has lo {r[0]!r} > hi {r[1]!r}")
    return points


@dataclass
class CalibrationResult:
    """Calibration statistics of a specific float model: for every
    quantization point (block_inputs), the [lo, hi] of its calibration
    rows of each modality, {"visual": [lo, hi], "text": [lo, hi]}.  A
    modality no row had has no range.  Grids are derived from it where
    they are used (QuantizedModel), so it holds no bits or symmetry."""

    fingerprint: str
    sample_count: int
    points: dict

    def __post_init__(self):
        check_field_types(self, "calibration key")
        if self.sample_count < 1:
            raise ValueError(
                f"calibration key 'sample_count' must be >= 1, got {self.sample_count}"
            )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "calibration",
            "fingerprint": self.fingerprint,
            "sample_count": self.sample_count,
            "points": {
                name: {key: list(r) for key, r in ranges.items()}
                for name, ranges in self.points.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationResult":
        keys = ("fingerprint", "sample_count", "points")
        _check_header(d, "calibration", "calibration", keys)
        with fileio.keys_required("calibration file"):
            fingerprint, sample_count, points = (d[key] for key in keys)
        return cls(fingerprint, sample_count, _check_points(points))


# Rows per pack in evaluate and stage_calibrate.  Consecutive samples are
# stacked up to this many rows; a longer sample is a pack of its own.  It
# bounds the peak memory of a forward by a pack, not by the batch.
PACK_ROWS = 1024


def _packs(samples: list, d_model: int):
    """Consecutive samples stacked into packs of at most PACK_ROWS rows.

    Yields (rows, modality, lengths) per pack: the samples' rows and tags
    stacked in order, and each sample's row count.  Each sample is checked
    here, so that an error names it by its index in samples.
    """
    pack: list = []
    size = 0
    for i, (rows, layout) in enumerate(samples):
        try:
            rows = as_tensor(rows)
            if rows.shape[1] != d_model:
                raise ValueError(f"sample width {rows.shape[1]} != model d_model {d_model}")
        except ValueError as exc:
            raise ValueError(f"sample {i}: {exc}") from None
        check_finite(rows, f"sample {i}")
        if rows.shape[0] != len(layout):
            raise ValueError(
                f"sample {i} has {rows.shape[0]} rows but its layout tags "
                f"{len(layout)} tokens"
            )
        if pack and size + rows.shape[0] > PACK_ROWS:
            yield _stack(pack)
            pack, size = [], 0
        pack.append((rows, layout))
        size += rows.shape[0]
    if pack:
        yield _stack(pack)


def _stack(pack: list) -> tuple[np.ndarray, np.ndarray, list[int]]:
    return (
        np.vstack([rows for rows, _ in pack]),
        np.concatenate([layout.modality for _, layout in pack]),
        [len(layout) for _, layout in pack],
    )


# ===== staged transform =====

# The stages mquant_quantize runs, in its order; build_rms_plans runs only
# under the config's rms.
STAGES = (
    "rotate_llm",
    "calibrate",
    "quantize_llm_weights",
    "vision_rewrite",
    "rotate_vision",
    "quantize_vision_weights",
    "build_rms_plans",
)


def stage_rotate_llm(model: ToyMllm) -> dict:
    """Rotate model's LLM part in place; returns the snapshots of its
    down-projections (rotate_model_offline)."""
    return rotate_model_offline(model, parts=("llm",))


def stage_calibrate(work: ToyMllm, fingerprint: str, samples: list) -> CalibrationResult:
    """Per-modality min/max of every block input, from float forwards of
    an LLM-rotated model.

    work has its LLM part rotated, so block inputs live in their final
    coordinates, and its vision path still float and untouched, which is
    the calibration contract for the LLM grids.  fingerprint names the
    float model work was derived from.  The samples run as packs of up to
    PACK_ROWS rows, one float forward each, visual-first as the quantized
    forward runs them; each block input is folded into its point's ranges
    as it is made, so memory holds one pack.  Min and max merge exactly,
    so the ranges depend neither on the packing nor on the sample order.
    A non-finite block input reaches the forward's output check.
    """
    if len(samples) == 0:
        raise ValueError("calibration needs at least one sample")
    points: dict = {name: {} for name in block_inputs(work.config)}

    def recorder(name: str, x: np.ndarray, modality: np.ndarray | None) -> np.ndarray:
        lo, hi = x.min(axis=1), x.max(axis=1)
        # a vision block's rows are all visual
        segments = (
            {"visual": slice(None)}
            if modality is None
            else {key: modality == tag for key, tag in MODALITIES.items()}
        )
        ranges = points[name]
        for key, rows in segments.items():
            seg_lo, seg_hi = lo[rows], hi[rows]
            if seg_lo.size:
                was = ranges.get(key, (math.inf, -math.inf))
                ranges[key] = [min(was[0], float(seg_lo.min())), max(was[1], float(seg_hi.max()))]
        return x

    for rows, modality, lengths in _packs(samples, work.config.d_model):
        model_forward(work, rows, modality, recorder, lengths)
    # every LLM block input holds every row, so only a vision point can be empty
    if not all(points.values()):
        raise ValueError(
            "calibration stream is empty for vision_act: "
            "no calibration sample holds a visual token"
        )
    if "text" not in points["llm.0.input"]:
        warnings.warn("no text tokens in calibration stream, using unit-scale sentinel")
    return CalibrationResult(fingerprint, len(samples), points)


def calibrate_pipeline(float_model: ToyMllm, samples: list) -> CalibrationResult:
    """The calibration of float_model, as the quantize pipeline would
    collect it: rotate the LLM part, then calibrate."""
    work = copy.deepcopy(float_model)
    stage_rotate_llm(work)
    return stage_calibrate(work, model_fingerprint(float_model), samples)


def stage_set_calibration(
    float_model: ToyMllm, calib: CalibrationResult
) -> CalibrationResult:
    """calib, if it was made for float_model and holds exactly its block
    inputs; otherwise a ValueError naming the mismatch."""
    expect = model_fingerprint(float_model)
    if calib.fingerprint != expect:
        raise ValueError(
            f"calibration was made for model {calib.fingerprint}, "
            f"this model is {expect}"
        )
    want = block_inputs(float_model.config)
    if set(calib.points) != set(want):
        raise ValueError(
            f"calibration points do not match the model's block inputs: "
            f"missing {sorted(set(want) - set(calib.points))}, "
            f"extra {sorted(set(calib.points) - set(want))}"
        )
    return calib


def _quantize_weights(model: ToyMllm, pcfg: PipelineConfig, parts: tuple) -> dict:
    """Freeze every linear of the given parts on its symmetric weight grid,
    per output channel (or per group of them): its weight becomes the
    fake-quantized one.  Returns the grids by linear name."""
    grids = {}
    for name, lin in iter_linears(model):
        if name.split(".")[0] not in parts:
            continue
        if name.endswith(".w_down") and pcfg.rms:
            continue  # frozen by its split plan
        w_t = np.ascontiguousarray(lin.w.T)
        params = compute_params_absmax(
            w_t, pcfg.bits_w, Granularity(pcfg.weight_granularity), group_size=pcfg.group_size
        )
        lin.w = np.ascontiguousarray(fake_quant(w_t, params).T)
        grids[name] = params
    return grids


def stage_quantize_llm_weights(model: ToyMllm, pcfg: PipelineConfig) -> dict:
    return _quantize_weights(model, pcfg, ("llm", "text_embed", "head"))


def stage_vision_rewrite(model: ToyMllm) -> None:
    preln_to_rmsnorm(model)


def stage_rotate_vision(model: ToyMllm) -> dict:
    """Rotate model's vision part in place; returns the snapshots of its
    down-projections.  The vision norms must already be RMS kind
    (stage_vision_rewrite)."""
    return rotate_model_offline(model, parts=("vision",))


def stage_quantize_vision_weights(model: ToyMllm, pcfg: PipelineConfig) -> dict:
    return _quantize_weights(model, pcfg, ("vision", "vision_embed", "projector"))


def stage_build_rms_plans(model: ToyMllm, snapshots: dict, pcfg: PipelineConfig) -> dict:
    """Put the split plan of every down-projection onto its block, built
    from the rotated weight and its snapshot, and freeze the weight on the
    plan's main grid.  Returns those grids by linear name."""
    grids = {}
    for part in ("vision", "llm"):
        for i, blk in enumerate(getattr(model, f"{part}_blocks")):
            name = f"{part}.{i}.w_down"
            blk.split = build_split_plan(
                name,
                w_rotated=blk.w_down.w,
                w_original=snapshots[name],
                bits=pcfg.bits_w,
                split_bits=pcfg.split_bits,
                granularity=Granularity(pcfg.weight_granularity),
                group_size=pcfg.group_size,
            )
            blk.w_down.w = blk.split.main_q
            grids[name] = blk.split.main_params
    return grids


def apply_lossless_stack(float_model: ToyMllm) -> ToyMllm:
    """Rewrite plus both rotations, no quantization: the float-equivalent
    transform stack, on a copy of float_model."""
    model = copy.deepcopy(float_model)
    stage_rotate_llm(model)
    stage_vision_rewrite(model)
    stage_rotate_vision(model)
    return model


# ===== quantized model =====


@dataclass
class QuantizedModel:
    """The quantized model and every frozen grid, ready to simulate.

    model is the transformed model with its weights frozen: each linear
    holds its weight fake-quantized on its grid in weight_grids (one per
    linear, by name), and each block with a split plan carries it, its
    w_down.w the plan's main_q.  calib is the calibration the model was
    built from.  The static activation grids are derived from its ranges
    at the config's bits_a and symmetry, per block: vision_act for the
    vision block inputs, msq for the LLM block inputs' two modality grids.
    forward reads both by block index.
    """

    pcfg: PipelineConfig
    float_model: ToyMllm
    model: ToyMllm
    weight_grids: dict
    calib: CalibrationResult
    counter: ScaleOpCounter = field(default_factory=ScaleOpCounter)
    vision_act: list = field(init=False)
    msq: list = field(init=False)

    def __post_init__(self):
        bits, symmetric = self.pcfg.bits_a, self.pcfg.symmetric_activations
        points = self.calib.points
        self.vision_act = [
            segment_params(*points[f"vision.{i}.input"]["visual"], bits, symmetric)
            for i in range(len(self.model.vision_blocks))
        ]
        self.msq = [
            calibrate_msq(points[f"llm.{i}.input"], bits, symmetric)
            for i in range(len(self.model.llm_blocks))
        ]

    @property
    def stages(self) -> list:
        """The stages that built the model, in the order they ran."""
        return [s for s in STAGES if self.pcfg.rms or s != "build_rms_plans"]

    @property
    def plans(self) -> dict:
        """The split plans by layer name, read off the blocks that hold them."""
        blocks = self.model.vision_blocks + self.model.llm_blocks
        return {blk.split.layer_id: blk.split for blk in blocks if blk.split is not None}

    def forward(
        self,
        sample: np.ndarray,
        modality: np.ndarray,
        dynamic: bool = False,
        lengths: list[int] | None = None,
    ) -> np.ndarray:
        """model_forward of the frozen model, with every block input
        fake-quantized on its grid: vision inputs on their static grids, LLM
        inputs on their block's two modality grids, or with dynamic on
        per-token grids computed on the fly.  The LLM rows run
        visual-first, so each modality grid meets one contiguous segment of
        the pack.  On a pack the static path applies its 2 scale ops per
        block once for the whole pack.
        """
        self.counter.reset()
        pcfg = self.pcfg

        def act_fn(name: str, x: np.ndarray, modality: np.ndarray | None) -> np.ndarray:
            idx = int(name.split(".")[1])
            if modality is None:  # a vision block
                return fake_quant(x, self.vision_act[idx])
            if dynamic:
                return quantize_dynamic_per_token(
                    x, pcfg.bits_a, pcfg.symmetric_activations, self.counter
                )
            return quantize_msq(x, modality == VISUAL, self.msq[idx], self.counter)

        return model_forward(self.model, sample, modality, act_fn, lengths)


def mquant_quantize(
    float_model: ToyMllm,
    pcfg: PipelineConfig,
    samples: list | None = None,
    calib: CalibrationResult | None = None,
) -> QuantizedModel:
    """Run the stages in the order STAGES names on one copy of float_model,
    which is left as it was, and assemble the quantized model.

    Exactly one of samples (calibrate here) or calib (a calibration made
    before) must be provided.  The model part of pcfg is replaced by the config of
    float_model, so the quantized model echoes the model it holds.
    """
    if (samples is None) == (calib is None):
        raise ValueError("provide exactly one of samples or calib")
    pcfg = replace(pcfg, model=float_model.config)
    model = copy.deepcopy(float_model)
    snapshots = stage_rotate_llm(model)
    if samples is not None:
        calib = stage_calibrate(model, model_fingerprint(float_model), samples)
    else:
        calib = stage_set_calibration(float_model, calib)
    weight_grids = stage_quantize_llm_weights(model, pcfg)
    stage_vision_rewrite(model)
    snapshots |= stage_rotate_vision(model)
    weight_grids |= stage_quantize_vision_weights(model, pcfg)
    if pcfg.rms:
        weight_grids |= stage_build_rms_plans(model, snapshots, pcfg)
    return QuantizedModel(pcfg, float_model, model, weight_grids, calib)


# ===== evaluation =====


def cosine_and_mse(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Flattened cosine similarity and mean squared error.

    Bitwise-equal inputs short-circuit to exactly (1.0, 0.0) so a model
    compared against itself reports perfect agreement, not 1 - 1e-16.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if np.array_equal(a, b):
        return 1.0, 0.0
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0, float(np.mean((a - b) ** 2))
    return float(np.dot(a, b) / (na * nb)), float(np.mean((a - b) ** 2))


def evaluate(qm: QuantizedModel, samples: list, dynamic: bool = False) -> dict:
    """Quantized outputs against the float reference, as a report dict.

    The samples run as packs of up to PACK_ROWS rows: one float and one
    quantized forward per pack, with attention confined to each sample.
    From lanes.FLOORS["evaluate"] rows a pack's two forwards run at once,
    the float reference here and the quantized one on the lanes' worker.
    Each sample is then scored on its own rows.  Its scale ops are what a
    lone forward of it counts: on the static path, the pack's 2 per block
    (every row of the pack passes both grids); on the dynamic path, its own
    rows per block.
    """
    if len(samples) == 0:
        raise ValueError("evaluation needs at least one sample")
    per_sample = []
    for rows, modality, lengths in _packs(samples, qm.model.config.d_model):
        ref, out = lanes.pair(
            "evaluate",
            rows.shape[0],
            lambda: model_forward(qm.float_model, rows, modality, lengths=lengths),
            lambda: qm.forward(rows, modality, dynamic=dynamic, lengths=lengths),
        )
        # only the quantized forward writes the counter; both have ended
        ops = qm.counter.scale_ops
        offset = 0
        for n in lengths:
            cos, mse = cosine_and_mse(out[offset : offset + n], ref[offset : offset + n])
            per_sample.append(
                {
                    "length": n,
                    "cosine": cos,
                    "mse": mse,
                    "scale_ops": ops * n // rows.shape[0] if dynamic else ops,
                }
            )
            offset += n
    cosines = [s["cosine"] for s in per_sample]
    mses = [s["mse"] for s in per_sample]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "eval",
        "config": qm.pcfg.to_dict(),
        "weight_solver": WEIGHT_SOLVER_NOTE,
        "stages": qm.stages,
        "activation_mode": "dynamic_per_token" if dynamic else "static_msq",
        "per_layer": {
            name: params_to_dict(p) for name, p in sorted(qm.weight_grids.items())
        },
        "activations": {
            "msq": _msq_to_dicts(qm.msq),
            "vision": [params_to_dict(p) for p in qm.vision_act],
        },
        "rms_compliance": compliance_ratio(list(qm.plans.values())),
        "counters": {
            "scale_ops_by_sample": [s["scale_ops"] for s in per_sample],
            "scale_ops_total": int(sum(s["scale_ops"] for s in per_sample)),
        },
        "metrics": {
            "samples": len(samples),
            "cosine_mean": float(np.mean(cosines)),
            "cosine_min": float(np.min(cosines)),
            "mse_mean": float(np.mean(mses)),
            "per_sample": per_sample,
        },
    }


def bench(qm: QuantizedModel, lengths: list, seed: int = 0) -> dict:
    """Static vs dynamic activation paths across sequence lengths.

    Scale-op counts are the contract; wall-clock seconds are informational
    only and never asserted anywhere.  The report records what the seconds
    ran on: the lane count, and whether the OpenBLAS hold found numpy's
    thread-count symbol (without it, BLAS keeps its own thread count).
    """
    if len(lengths) == 0:
        raise ValueError("bench needs at least one length")
    entries = []
    for length in lengths:
        sample, layout = generate_synthetic_samples(
            1, int(length), seed=seed + int(length), d_model=qm.model.config.d_model
        )[0]
        entry = {"length": int(length)}
        for mode, dynamic in (("static", False), ("dynamic", True)):
            t0 = time.perf_counter()
            qm.forward(sample, layout.modality, dynamic=dynamic)
            seconds = time.perf_counter() - t0
            entry[mode] = {
                "scale_ops": qm.counter.scale_ops,
                "seconds": seconds,
            }
        entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "config": qm.pcfg.to_dict(),
        "weight_solver": WEIGHT_SOLVER_NOTE,
        "llm_blocks": len(qm.model.llm_blocks),
        "note": "seconds are informational; scale_ops are the asserted contract",
        "lanes": {"count": lanes.LANES, "blas_hold_found": lanes.blas_hold_found()},
        "entries": entries,
    }


# ===== qmodel round trip =====


def qmodel_to_dict(qm: QuantizedModel) -> dict:
    """The three inputs the quantized model is a function of; everything
    else is re-derived by qmodel_from_dict.  Each fact is stored once: the
    model keys in the float model's config, the quantization keys in the
    config, the float model's fingerprint in the calibration."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "qmodel",
        "config": {key: getattr(qm.pcfg, key) for key in PipelineConfig._quant_keys()},
        "float_model": model_sections(qm.float_model),
        "calibration": qm.calib.to_dict(),
    }


def qmodel_from_dict(d: dict) -> QuantizedModel:
    """Re-run the pipeline on the stored float model and calibration, so the
    config's and the calibration's pairing checks apply on every load.  A
    config or float model section that still holds model keys or its
    fingerprint (files written before each was stored once) is checked
    against them too."""
    keys = ("float_model", "config", "calibration")
    _check_header(d, "qmodel", "quantized model", keys)
    with fileio.keys_required("quantized model file"):
        model, config, calib = (
            fileio.require(d[key], dict, f"quantized model file section {key!r}")
            for key in keys
        )
    float_model = model_from_dict(model)
    return mquant_quantize(
        float_model,
        PipelineConfig.for_model(config, float_model.config, "quantized model config"),
        calib=CalibrationResult.from_dict(calib),
    )
