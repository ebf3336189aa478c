"""Spans around mquant's public functions, installed from outside the package.

A Tracer rebinds each traced function in every ``mquant`` module namespace
that holds it (``from .numerics import matmul`` leaves a copy in each
importing module, so patching the home module alone would miss most calls),
plus ``QuantizedModel.forward`` on its class.  Leaving the ``with`` block
restores every binding and fails if any wrapper is left behind, so untraced
operations always run the unmodified program.

Spans are kept in memory as (name, start, end, parent index, op id) and
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from mquant.pipeline import QuantizedModel

_MARK = "_perfbench_span"


def _size(args, kwargs, result):
    return np.size(args[0])


def _flop(args, kwargs, result):
    (m, k), n = np.shape(args[0]), np.shape(args[1])[1]
    return 2 * m * k * n


def _rows(args, kwargs, result):
    return np.shape(args[1])[0]


def _b64_out(args, kwargs, result):
    return len(result)


def _b64_in(args, kwargs, result):
    return len(args[0])


STAGES = (
    "stage_rotate_llm",
    "stage_quantize_llm_weights",
    "stage_calibrate",
    "stage_vision_rewrite",
    "stage_rotate_vision",
    "stage_quantize_vision_weights",
    "stage_build_rms_plans",
)

# (module, function, span name, quantity name, quantity of one call)
TARGETS = (
    ("numerics", "matmul", "numerics.matmul", "flop", _flop),
    ("numerics", "masked_softmax_rows", "numerics.masked_softmax_rows", "elements", _size),
    ("numerics", "check_finite", "numerics.check_finite", None, None),
    ("numerics", "layer_norm", "numerics.norm", None, None),
    ("numerics", "rms_norm", "numerics.norm", None, None),
    ("quantizer", "fake_quant", "quantizer.fake_quant", "elements", _size),
    ("quantizer", "compute_params_absmax", "quantizer.compute_params_absmax", None, None),
    ("quantizer", "quantize", "quantizer.quantize", None, None),
    ("hadamard", "fht", "hadamard.fht", "elements", _size),
    ("rotation", "rotate_model_offline", "rotation.rotate_model_offline", None, None),
    ("norm_rewrite", "preln_to_rmsnorm", "norm_rewrite.preln_to_rmsnorm", None, None),
    ("rms", "rms_forward", "rms.rms_forward", None, None),
    ("rms", "build_split_plan", "rms.build_split_plan", None, None),
    ("msq_aifs", "attention_forward", "msq_aifs.attention_forward", None, None),
    ("msq_aifs", "rope_rotate", "msq_aifs.rope_rotate", None, None),
    ("msq_aifs", "unified_causal_mask", "msq_aifs.unified_causal_mask", None, None),
    ("msq_aifs", "permuted_mask_oracle", "msq_aifs.permuted_mask_oracle", None, None),
    ("msq_aifs", "build_aifs_plan", "msq_aifs.build_aifs_plan", None, None),
    ("msq_aifs", "quantize_msq", "msq_aifs.quantize_msq", None, None),
    ("msq_aifs", "quantize_dynamic_per_token", "msq_aifs.quantize_dynamic_per_token", None, None),
    ("msq_aifs", "calibrate_msq", "msq_aifs.calibrate_msq", None, None),
    ("model", "vision_encode", "model.vision_encode", "tokens", _rows),
    ("model", "block_forward", "model.block_forward", None, None),
    ("model", "gelu", "model.gelu", None, None),
    ("model", "model_forward", "model.model_forward", None, None),
    ("model", "model_from_dict", "model.model_from_dict", None, None),
    ("model", "model_to_dict", "model.model_to_dict", None, None),
    ("model", "build_toy_mllm", "model.build_toy_mllm", None, None),
    ("model", "model_fingerprint", "model.model_fingerprint", None, None),
    ("pipeline", "evaluate", "pipeline.evaluate", None, None),
    ("pipeline", "calibrate_pipeline", "pipeline.calibrate_pipeline", None, None),
    ("pipeline", "mquant_quantize", "pipeline.mquant_quantize", None, None),
    *(("pipeline", s, f"pipeline.{s}", None, None) for s in STAGES),
    ("pipeline", "qmodel_to_dict", "pipeline.qmodel_to_dict", None, None),
    ("pipeline", "qmodel_from_dict", "pipeline.qmodel_from_dict", None, None),
    ("fileio", "tensor_to_b64", "fileio.tensor_to_b64", "bytes", _b64_out),
    ("fileio", "tensor_from_b64", "fileio.tensor_from_b64", "bytes", _b64_in),
    ("fileio", "load_samples", "fileio.load_samples", None, None),
    ("cli", "cmd_quantize", "cli.cmd_quantize", None, None),
    ("cli", "cmd_eval", "cli.cmd_eval", None, None),
)

FORWARD_SPAN = "pipeline.QuantizedModel.forward"


def _forward_scale_ops(args, kwargs, result):
    """Scale ops of one quantized forward, read from the model's counter."""
    dynamic = kwargs.get("dynamic", args[3] if len(args) > 3 else False)
    mode = "dynamic" if dynamic else "static"
    return {f"msq_aifs.scale_ops_{mode}": args[0].counter.scale_ops, f"forwards.{mode}": 1}


def _field(span, field, unit):
    return (f"{span}.{field}", unit, span, field)


def _calls_self(span, *extra):
    return [_field(span, "calls", "count"), _field(span, "self_s", "s"), *extra]


# (metric, unit, span, field); every value is per traced op.
PER_LAYER = [
    *_calls_self("numerics.matmul", _field("numerics.matmul", "flop", "flop")),
    *_calls_self(
        "numerics.masked_softmax_rows",
        _field("numerics.masked_softmax_rows", "elements", "count"),
    ),
    *_calls_self("numerics.check_finite"),
    _field("numerics.norm", "self_s", "s"),
    *_calls_self("quantizer.fake_quant", _field("quantizer.fake_quant", "elements", "count")),
    *_calls_self("quantizer.compute_params_absmax"),
    *_calls_self("quantizer.quantize"),
    *_calls_self("hadamard.fht", _field("hadamard.fht", "elements", "count")),
    _field("rotation.rotate_model_offline", "calls", "count"),
    _field("rotation.rotate_model_offline", "total_s", "s"),
    _field("norm_rewrite.preln_to_rmsnorm", "calls", "count"),
    _field("norm_rewrite.preln_to_rmsnorm", "total_s", "s"),
    *_calls_self("rms.rms_forward"),
    ("rms.requant_per_call", "ratio", None, "requant"),
    _field("rms.build_split_plan", "calls", "count"),
    _field("rms.build_split_plan", "total_s", "s"),
    *_calls_self("msq_aifs.attention_forward"),
    *_calls_self("msq_aifs.rope_rotate"),
    _field("msq_aifs.unified_causal_mask", "self_s", "s"),
    *_calls_self("msq_aifs.permuted_mask_oracle"),
    _field("msq_aifs.build_aifs_plan", "self_s", "s"),
    *_calls_self("msq_aifs.quantize_msq"),
    *_calls_self("msq_aifs.quantize_dynamic_per_token"),
    ("msq_aifs.scale_ops_static", "count", None, "static"),
    ("msq_aifs.scale_ops_dynamic", "count", None, "dynamic"),
    _field("msq_aifs.calibrate_msq", "total_s", "s"),
    *_calls_self("model.vision_encode", _field("model.vision_encode", "tokens", "count")),
    *_calls_self("model.block_forward"),
    _field("model.gelu", "self_s", "s"),
    _field("model.model_forward", "calls", "count"),
    _field("model.model_forward", "total_s", "s"),
    _field("model.model_from_dict", "total_s", "s"),
    _field("model.model_to_dict", "total_s", "s"),
    _field("model.build_toy_mllm", "calls", "count"),
    *_calls_self("model.model_fingerprint"),
    *_calls_self(FORWARD_SPAN, _field(FORWARD_SPAN, "total_s", "s")),
    _field("pipeline.evaluate", "self_s", "s"),
    _field("pipeline.calibrate_pipeline", "total_s", "s"),
    _field("pipeline.mquant_quantize", "total_s", "s"),
    *(_field(f"pipeline.{s}", "total_s", "s") for s in STAGES),
    _field("pipeline.qmodel_to_dict", "total_s", "s"),
    _field("pipeline.qmodel_from_dict", "total_s", "s"),
    *_calls_self("fileio.tensor_to_b64", _field("fileio.tensor_to_b64", "bytes", "bytes")),
    *_calls_self("fileio.tensor_from_b64", _field("fileio.tensor_from_b64", "bytes", "bytes")),
    _field("fileio.load_samples", "total_s", "s"),
    _field("cli.cmd_quantize", "self_s", "s"),
    _field("cli.cmd_eval", "self_s", "s"),
    ("trace.overhead_frac", "ratio", None, "overhead"),
]


def _mquant_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mquant" or name.startswith("mquant."))
    ]


class Tracer:
    """Records spans while installed; use as ``with tracer: ...``."""

    def __init__(self):
        self.spans = []
        self.quantities = Counter()
        self.op = None
        self._stack = []
        self._patches = []
        # span name -> module namespaces its function was rebound in
        self.coverage = defaultdict(set)

    def _wrap(self, name, fn, quantity_name, quantity):
        spans, stack, quantities = self.spans, self._stack, self.quantities
        key = f"{name}.{quantity_name}"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if quantity is not None:
                value = quantity(args, kwargs, result)
                if isinstance(value, dict):
                    quantities.update(value)
                else:
                    quantities[key] += value
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def __enter__(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _mquant_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for home, attr, name, quantity_name, quantity in TARGETS:
            orig = getattr(by_name[f"mquant.{home}"], attr)
            if hasattr(orig, _MARK):
                raise RuntimeError(f"mquant.{home}.{attr} is already wrapped")
            wrapper = self._wrap(name, orig, quantity_name, quantity)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))
                        self.coverage[name].add(mod.__name__)
        orig = QuantizedModel.__dict__["forward"]
        setattr(QuantizedModel, "forward", self._wrap(FORWARD_SPAN, orig, None, _forward_scale_ops))
        self._patches.append((QuantizedModel, "forward", orig))
        self.coverage[FORWARD_SPAN].add("mquant.pipeline.QuantizedModel")
        return self

    def __exit__(self, *exc):
        patches, self._patches = self._patches, []
        for obj, key, orig in reversed(patches):
            setattr(obj, key, orig)
        assert_unpatched()
        return False

    def write(self, path):
        """Write every recorded span as JSON: a name table plus rows of
        [name index, start s, end s, parent span index, op id]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(t0 - t_base, 9), round(t1 - t_base, 9), parent, op]
            for n, t0, t1, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def assert_unpatched():
    """Raise if any mquant namespace or QuantizedModel still holds a wrapper."""
    left = [
        f"{mod.__name__}.{key}"
        for mod in _mquant_modules()
        for key, value in vars(mod).items()
        if hasattr(value, _MARK)
    ]
    left += [
        f"QuantizedModel.{key}"
        for key, value in vars(QuantizedModel).items()
        if hasattr(value, _MARK)
    ]
    if left:
        raise RuntimeError(f"traced bindings left in place: {', '.join(left)}")


def layer_metrics(tracer, ops, overhead_frac):
    """Per-layer metrics, each divided by the number of traced ops."""
    if ops < 1:
        raise ValueError("per-layer metrics need at least one traced op")
    calls, total, child = Counter(), defaultdict(float), defaultdict(float)
    requant = 0
    spans = tracer.spans
    for name, t0, t1, parent, _ in spans:
        calls[name] += 1
        total[name] += t1 - t0
        if parent >= 0:
            parent_name = spans[parent][0]
            child[parent_name] += t1 - t0
            if name == "quantizer.fake_quant" and parent_name == "rms.rms_forward":
                requant += 1
    q = tracer.quantities
    derived = {
        "requant": requant / calls["rms.rms_forward"] if calls["rms.rms_forward"] else 0.0,
        "static": q["msq_aifs.scale_ops_static"] / max(q["forwards.static"], 1),
        "dynamic": q["msq_aifs.scale_ops_dynamic"] / max(q["forwards.dynamic"], 1),
        "overhead": overhead_frac,
    }
    out = {}
    for metric, unit, span, field in PER_LAYER:
        if span is None:
            value = derived[field]
        elif field == "calls":
            value = calls[span] / ops
        elif field == "total_s":
            value = total[span] / ops
        elif field == "self_s":
            value = (total[span] - child[span]) / ops
        else:
            value = q[f"{span}.{field}"] / ops
        out[metric] = {"value": value, "unit": unit}
    return out
