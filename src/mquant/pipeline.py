"""Staged quantization pipeline over the toy multimodal model.

The driver runs seven stages in a fixed order: rotate the LLM part,
calibrate activations (modality-split grids for LLM block inputs, plain
static grids for vision block inputs, always through float weights and the
still-float vision path), freeze the LLM weights, rewrite the vision
encoder's norms, rotate the vision part, freeze its weights, then build the
outlier-row split plan of every down-projection.  Each stage checks its
real preconditions, so running them out of order fails loudly instead of
silently producing a model quantized in the wrong coordinates.  The stage
that picks a weight's grid freezes the weight on it in place, and each
split plan goes onto its block as it is built, so the transformed model is
the model the quantized forward runs.  Calibration and the quantized
forward both run model.model_forward, with the row order of the config's
aifs: calibration records each block input there, and the quantized
forward fake-quantizes it.  That order moves rows, not values, so a
calibration serves either order.

Weight grids are plain round-to-nearest absmax; no error-compensating
sequential solver is used, and every report says so.
"""

from __future__ import annotations

import time
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
    model_to_dict,
)
from .msq_aifs import (
    TEXT,
    VISUAL,
    ModalityLayout,
    MsqParams,
    ScaleOpCounter,
    calibrate_msq,
    layout_from_string,
    quantize_dynamic_per_token,
    quantize_msq,
)
from .norm_rewrite import preln_to_rmsnorm
from .numerics import as_tensor, check_finite, matmul
from .quantizer import (
    SUPPORTED_BITS,
    Granularity,
    calibrate_static,
    compute_params_absmax,
    fake_quant,
    params_from_dict,
    params_to_dict,
)
from .rms import build_split_plan, compliance_ratio
from .rotation import rotate_model_offline

SCHEMA_VERSION = 2

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
    aifs: bool = True
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


def _check_header(d: dict, kind: str, what: str) -> None:
    """Reject a non-object file, or one of another kind or layout version."""
    fileio.require(d, dict, f"{what} file")
    if d.get("kind") != kind:
        raise ValueError(f"not a {what} file (kind={d.get('kind')!r})")
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{what} file has schema_version={d.get('schema_version')!r}, "
            f"this version reads {SCHEMA_VERSION}"
        )


def _msq_to_dicts(msq: list) -> list:
    """LLM block grids as JSON, one {visual, text} pair per block."""
    return [
        {"visual": params_to_dict(m.visual), "text": params_to_dict(m.text)}
        for m in msq
    ]


@dataclass
class CalibrationResult:
    """Frozen activation grids, tied to a specific float model."""

    fingerprint: str
    msq: list
    vision_act: list
    sample_count: int
    bits_a: int
    symmetric: bool

    def __post_init__(self):
        check_field_types(self, "calibration key")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "calibration",
            "fingerprint": self.fingerprint,
            "sample_count": self.sample_count,
            "bits_a": self.bits_a,
            "symmetric": self.symmetric,
            "msq": _msq_to_dicts(self.msq),
            "vision_act": [params_to_dict(p) for p in self.vision_act],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationResult":
        _check_header(d, "calibration", "calibration")
        with fileio.keys_required("calibration file"):
            msq, vision_act = (
                fileio.require(d[key], list, f"calibration {key}") for key in ("msq", "vision_act")
            )
            pairs = [fileio.require(m, dict, f"calibration msq[{i}]") for i, m in enumerate(msq)]
            calib = cls(
                fingerprint=d["fingerprint"],
                msq=[
                    MsqParams(d["bits_a"], d["symmetric"], *(
                        params_from_dict(m[part], f"calibration msq[{i}].{part}")
                        for part in ("visual", "text")
                    ))
                    for i, m in enumerate(pairs)
                ],
                vision_act=[
                    params_from_dict(p, f"calibration vision_act[{i}]")
                    for i, p in enumerate(vision_act)
                ],
                sample_count=d["sample_count"],
                bits_a=d["bits_a"],
                symmetric=d["symmetric"],
            )
        grids = [
            (f"msq[{i}].{part}", getattr(m, part))
            for i, m in enumerate(calib.msq)
            for part in ("visual", "text")
        ] + [(f"vision_act[{i}]", p) for i, p in enumerate(calib.vision_act)]
        want = (Granularity.PER_TENSOR, calib.bits_a, calib.symmetric)
        for name, p in grids:
            if (p.granularity, p.bits, p.symmetric) != want:
                raise ValueError(
                    f"calibration {name} must be per_tensor at the file's bits_a="
                    f"{calib.bits_a}, symmetric={calib.symmetric}; it is "
                    f"{p.granularity.value} at bits={p.bits}, symmetric={p.symmetric}"
                )
        return calib


# Rows per pack in evaluate and calibrate_rotated.  Consecutive samples are
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


def calibrate_rotated(
    work: ToyMllm, fingerprint: str, samples: list, pcfg: PipelineConfig
) -> CalibrationResult:
    """Collect activation grids from float forwards of an LLM-rotated model.

    work has its LLM part rotated, so block inputs live in their final
    coordinates, and its vision path still float and untouched, which is
    the calibration contract for the LLM grids.  fingerprint names the
    float model work was derived from.  The samples run as packs of up to
    PACK_ROWS rows, one float forward each, in the order the quantized
    forward runs them.  The grids are min/max over every recorded row, so
    they do not depend on how the rows are packed.
    """
    if len(samples) == 0:
        raise ValueError("calibration needs at least one sample")
    llm_inputs: list[list] = [[] for _ in work.llm_blocks]
    vision_inputs: list[list] = [[] for _ in work.vision_blocks]

    def recorder(name: str, x: np.ndarray, modality: np.ndarray | None) -> np.ndarray:
        idx = int(name.split(".")[1])
        if modality is None:
            vision_inputs[idx].append(x)
        else:
            llm_inputs[idx].append((x, ModalityLayout(modality)))
        return x

    for rows, modality, lengths in _packs(samples, work.config.d_model):
        model_forward(work, rows, modality, recorder, lengths, pcfg.aifs)
    if not vision_inputs[0]:
        raise ValueError(
            "calibration stream is empty for vision_act: "
            "no calibration sample holds a visual token"
        )
    msq = [
        calibrate_msq(pairs, pcfg.bits_a, symmetric=pcfg.symmetric_activations)
        for pairs in llm_inputs
    ]
    vision_act = [
        calibrate_static(inputs, pcfg.bits_a, symmetric=pcfg.symmetric_activations)
        for inputs in vision_inputs
    ]
    return CalibrationResult(
        fingerprint=fingerprint,
        msq=msq,
        vision_act=vision_act,
        sample_count=len(samples),
        bits_a=pcfg.bits_a,
        symmetric=pcfg.symmetric_activations,
    )


# ===== staged transform =====


@dataclass
class QuantizeState:
    pcfg: PipelineConfig
    float_model: ToyMllm
    model: ToyMllm
    snapshots: dict = field(default_factory=dict)
    weight_grids: dict = field(default_factory=dict)
    calib: CalibrationResult | None = None
    done: list = field(default_factory=list)

    def require(self, *stages: str) -> None:
        missing = [s for s in stages if s not in self.done]
        if missing:
            raise ValueError(
                f"stage order violation: {missing} must run first (done: {self.done})"
            )

    def forbid(self, stage: str, reason: str) -> None:
        if stage in self.done:
            raise ValueError(f"stage order violation: {reason}")

    def mark(self, stage: str) -> None:
        if stage in self.done:
            raise ValueError(f"stage {stage!r} already ran")
        self.done.append(stage)


def new_state(float_model: ToyMllm, pcfg: PipelineConfig) -> QuantizeState:
    return QuantizeState(pcfg=pcfg, float_model=float_model, model=float_model)


def stage_rotate_llm(state: QuantizeState) -> None:
    state.model, snaps = rotate_model_offline(state.model, parts=("llm",))
    state.snapshots.update(snaps)
    state.mark("rotate_llm")


def _quantize_weights(state: QuantizeState, parts: tuple) -> None:
    """Freeze every linear of the given parts on its symmetric weight grid,
    per output channel (or per group of them): its weight becomes the
    fake-quantized one, and its grid goes into weight_grids."""
    pcfg = state.pcfg
    for name, lin in iter_linears(state.model):
        if name.split(".")[0] not in parts:
            continue
        if name.endswith(".w_down") and pcfg.rms:
            continue  # frozen by its split plan
        w_t = np.ascontiguousarray(lin.w.T)
        params = compute_params_absmax(
            w_t, pcfg.bits_w, Granularity(pcfg.weight_granularity), group_size=pcfg.group_size
        )
        lin.w = np.ascontiguousarray(fake_quant(w_t, params).T)
        state.weight_grids[name] = params


def stage_calibrate(state: QuantizeState, samples: list) -> None:
    state.require("rotate_llm")
    for stage, what in ("quantize_llm_weights", "LLM weights"), ("vision_rewrite", "vision path"):
        state.forbid(
            stage, f"activation calibration must see the float {what}, but {stage} already ran"
        )
    state.calib = calibrate_rotated(
        state.model, model_fingerprint(state.float_model), samples, state.pcfg
    )
    state.mark("calibrate")


def calibrate_pipeline(
    float_model: ToyMllm, samples: list, pcfg: PipelineConfig
) -> CalibrationResult:
    """Activation grids for float_model, as the quantize pipeline would
    collect them: rotate the LLM part, then calibrate."""
    state = new_state(float_model, pcfg)
    stage_rotate_llm(state)
    return calibrate_rotated(
        state.model, model_fingerprint(float_model), samples, pcfg
    )


def stage_set_calibration(state: QuantizeState, calib: CalibrationResult) -> None:
    state.require("rotate_llm")
    state.forbid(
        "vision_rewrite",
        "calibration must be attached before the vision rewrite stage",
    )
    expect = model_fingerprint(state.float_model)
    if calib.fingerprint != expect:
        raise ValueError(
            f"calibration was made for model {calib.fingerprint}, "
            f"this model is {expect}"
        )
    if calib.bits_a != state.pcfg.bits_a:
        raise ValueError(
            f"calibration used bits_a={calib.bits_a}, config says {state.pcfg.bits_a}"
        )
    if calib.symmetric != state.pcfg.symmetric_activations:
        raise ValueError(
            f"calibration used symmetric={calib.symmetric}, config says "
            f"symmetric_activations={state.pcfg.symmetric_activations}"
        )
    for key, part in (("msq", "llm"), ("vision_act", "vision")):
        held = len(getattr(calib, key))
        blocks = getattr(state.float_model.config, f"{part}_blocks")
        if held != blocks:
            raise ValueError(f"calibration holds {held} {key} grids for {blocks} {part} blocks")
    state.calib = calib
    state.mark("calibrate")


def stage_quantize_llm_weights(state: QuantizeState) -> None:
    state.require("rotate_llm")
    _quantize_weights(state, ("llm", "text_embed", "head"))
    state.mark("quantize_llm_weights")


def stage_vision_rewrite(state: QuantizeState) -> None:
    state.model = preln_to_rmsnorm(state.model)
    state.mark("vision_rewrite")


def stage_rotate_vision(state: QuantizeState) -> None:
    state.require("vision_rewrite")
    state.model, snaps = rotate_model_offline(state.model, parts=("vision",))
    state.snapshots.update(snaps)
    state.mark("rotate_vision")


def stage_quantize_vision_weights(state: QuantizeState) -> None:
    state.require("rotate_vision")
    _quantize_weights(state, ("vision", "vision_embed", "projector"))
    state.mark("quantize_vision_weights")


def stage_build_rms_plans(state: QuantizeState) -> None:
    state.require("rotate_llm", "rotate_vision")
    if not state.pcfg.rms:
        raise ValueError("split plans are disabled (rms off)")
    for part in ("vision", "llm"):
        for i, blk in enumerate(getattr(state.model, f"{part}_blocks")):
            name = f"{part}.{i}.w_down"
            blk.split = build_split_plan(
                name,
                w_rotated=blk.w_down.w,
                w_original=state.snapshots[name],
                bits=state.pcfg.bits_w,
                split_bits=state.pcfg.split_bits,
                granularity=Granularity(state.pcfg.weight_granularity),
                group_size=state.pcfg.group_size,
            )
            blk.w_down.w = blk.split.main_q
            state.weight_grids[name] = blk.split.main_params
    state.mark("build_rms_plans")


def apply_lossless_stack(float_model: ToyMllm, pcfg: PipelineConfig) -> ToyMllm:
    """Rewrite plus both rotations, no quantization: the float-equivalent
    transform stack."""
    state = new_state(float_model, pcfg)
    stage_rotate_llm(state)
    stage_vision_rewrite(state)
    stage_rotate_vision(state)
    return state.model


# ===== quantized model =====


@dataclass
class QuantizedModel:
    """The quantized model and every frozen grid, ready to simulate.

    model is the transformed model with its weights frozen: each linear
    holds its weight fake-quantized on its grid in weight_grids (one per
    linear, by name), and each block with a split plan carries it, its
    w_down.w the plan's main_q.  calib is the calibration the model was
    built from.  msq starts as its LLM block grids and is what forward
    reads.
    """

    pcfg: PipelineConfig
    float_model: ToyMllm
    model: ToyMllm
    weight_grids: dict
    calib: CalibrationResult
    stage_log: list
    counter: ScaleOpCounter = field(default_factory=ScaleOpCounter)
    msq: list = field(init=False)

    def __post_init__(self):
        self.msq = self.calib.msq

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
        per-token grids computed on the fly.  Under the config's aifs the
        LLM rows run visual-first, so each grid meets one contiguous
        segment of the pack; the output does not depend on it.  On a pack
        the static path applies its 2 scale ops per block once for the
        whole pack.
        """
        self.counter.reset()
        pcfg = self.pcfg

        def act_fn(name: str, x: np.ndarray, modality: np.ndarray | None) -> np.ndarray:
            idx = int(name.split(".")[1])
            if modality is None:  # a vision block
                return fake_quant(x, self.calib.vision_act[idx])
            if dynamic:
                return quantize_dynamic_per_token(
                    x, pcfg.bits_a, pcfg.symmetric_activations, self.counter
                )
            return quantize_msq(x, modality == VISUAL, self.msq[idx], self.counter)

        return model_forward(self.model, sample, modality, act_fn, lengths, aifs=pcfg.aifs)


def mquant_quantize(
    float_model: ToyMllm,
    pcfg: PipelineConfig,
    samples: list | None = None,
    calib: CalibrationResult | None = None,
) -> QuantizedModel:
    """Run the full staged pipeline and assemble the quantized model.

    Exactly one of samples (calibrate here) or calib (precomputed grids)
    must be provided.  The model part of pcfg is replaced by the config of
    float_model, so the quantized model echoes the model it holds.
    """
    if (samples is None) == (calib is None):
        raise ValueError("provide exactly one of samples or calib")
    pcfg = replace(pcfg, model=float_model.config)
    state = new_state(float_model, pcfg)
    stage_rotate_llm(state)
    if samples is not None:
        stage_calibrate(state, samples)
    else:
        stage_set_calibration(state, calib)
    stage_quantize_llm_weights(state)
    stage_vision_rewrite(state)
    stage_rotate_vision(state)
    stage_quantize_vision_weights(state)
    if pcfg.rms:
        stage_build_rms_plans(state)
    return QuantizedModel(
        pcfg=pcfg,
        float_model=state.float_model,
        model=state.model,
        weight_grids=state.weight_grids,
        calib=state.calib,
        stage_log=list(state.done),
    )


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
        "stages": list(qm.stage_log),
        "activation_mode": "dynamic_per_token" if dynamic else "static_msq",
        "per_layer": {
            name: params_to_dict(p) for name, p in sorted(qm.weight_grids.items())
        },
        "activations": {
            "msq": _msq_to_dicts(qm.msq),
            "vision": [params_to_dict(p) for p in qm.calib.vision_act],
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
    only and never asserted anywhere.
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
        "entries": entries,
    }


# ===== qmodel round trip =====


def qmodel_to_dict(qm: QuantizedModel) -> dict:
    """The three inputs the quantized model is a function of; everything
    else is re-derived by qmodel_from_dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "qmodel",
        "config": qm.pcfg.to_dict(),
        "float_model": model_to_dict(qm.float_model),
        "calibration": qm.calib.to_dict(),
    }


def qmodel_from_dict(d: dict) -> QuantizedModel:
    """Re-run the pipeline on the stored float model and calibration, so the
    config's and the calibration's pairing checks apply on every load."""
    _check_header(d, "qmodel", "quantized model")
    with fileio.keys_required("quantized model file"):
        model, config, calib = (
            fileio.require(d[key], dict, f"quantized model file section {key!r}")
            for key in ("float_model", "config", "calibration")
        )
    float_model = model_from_dict(model)
    return mquant_quantize(
        float_model,
        PipelineConfig.for_model(config, float_model.config, "quantized model config"),
        calib=CalibrationResult.from_dict(calib),
    )
