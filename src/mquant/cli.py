"""Command line front end for the quantization toolkit.

Subcommands cover the whole desk workflow: gen-model and gen-samples
write the float model and calibration batches, calibrate records the
activation ranges the static grids are derived from, quantize runs the
staged pipeline, eval scores the quantized model against its float
reference, bench compares the static and dynamic activation paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fileio
from .model import ToyMllmConfig, build_toy_mllm, model_from_dict, model_to_dict
from .msq_aifs import ModalityLayout
from .pipeline import (
    CalibrationResult,
    PipelineConfig,
    bench,
    calibrate_pipeline,
    evaluate,
    generate_synthetic_samples,
    mquant_quantize,
    qmodel_from_dict,
    qmodel_to_dict,
)


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text())


CONFIG_HELP = "pipeline config JSON; defaults when omitted"


def _add_quant_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help=CONFIG_HELP)
    p.add_argument("--bits-w", type=int, dest="bits_w", help="weight bit width")
    p.add_argument("--bits-a", type=int, dest="bits_a", help="activation bit width")
    p.add_argument(
        "--granularity",
        choices=("per_channel", "per_group"),
        dest="weight_granularity",
        help="weight grid granularity",
    )
    p.add_argument("--group-size", type=int, dest="group_size")
    p.add_argument("--split-bits", type=int, dest="split_bits")
    p.add_argument("--no-rms", action="store_true", help="disable outlier-row splits")


def _config_dict(args: argparse.Namespace) -> dict:
    """The --config file with the command line flags laid over it."""
    d = {}
    if args.config:
        d = fileio.require(_read_json(args.config), dict, f"--config file {args.config}")
    for key in ("bits_w", "bits_a", "weight_granularity", "group_size", "split_bits", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            d[key] = val
    if getattr(args, "no_rms", False):
        d["rms"] = False
    return d


def _load_model(path):
    return model_from_dict(_read_json(path))


def _load_samples(path, d_model: int) -> list:
    """Load one batch file, or every file inside a directory of batches.

    Every sample must be as wide as the first one and as the model, so a
    wrong batch fails here, naming the file and the sample, before any
    forward runs.
    """
    p = Path(path)
    if p.is_dir():
        files = sorted(child for child in p.iterdir() if child.is_file())
        if not files:
            raise ValueError(f"sample directory {path} is empty")
    else:
        files = [p]
    samples, first = [], None
    for f in files:
        for i, (tensor, mod) in enumerate(fileio.load_samples(f)):
            width = tensor.shape[1]
            if first is None:
                first = (f, i, width)
            elif width != first[2]:
                raise ValueError(
                    f"{f}: sample {i} has width {width}, "
                    f"but {first[0]}: sample {first[1]} has width {first[2]}"
                )
            samples.append((tensor, ModalityLayout(mod)))
    if first is not None and first[2] != d_model:
        raise ValueError(
            f"{first[0]}: sample width {first[2]} != model d_model {d_model}"
        )
    return samples


def cmd_gen_model(args: argparse.Namespace) -> int:
    d = _config_dict(args)
    model_keys = ToyMllmConfig().to_dict()
    extra = sorted(set(d) - set(model_keys))
    if extra:
        raise ValueError(
            f"unknown config keys for gen-model: {extra}; "
            f"it reads only the model keys {sorted(model_keys)}"
        )
    model_file = model_to_dict(build_toy_mllm(ToyMllmConfig(**d)))
    fileio.write_json(args.out, model_file)
    print(f"wrote {args.out} (fingerprint {model_file['fingerprint']})")
    return 0


def cmd_gen_samples(args: argparse.Namespace) -> int:
    samples = generate_synthetic_samples(
        args.count,
        args.length,
        layout_spec=args.layout,
        seed=args.seed,
        d_model=args.d_model,
    )
    fileio.save_samples(
        args.out, [(tensor, layout.modality) for tensor, layout in samples]
    )
    print(f"wrote {args.out} ({args.count} samples, length {args.length})")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    samples = _load_samples(args.samples, model.config.d_model)
    calib = calibrate_pipeline(model, samples)
    fileio.write_json(args.out, calib.to_dict())
    print(
        f"wrote {args.out} ({calib.sample_count} samples, "
        f"{len(calib.points)} points, fingerprint {calib.fingerprint})"
    )
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    pcfg = PipelineConfig.for_model(_config_dict(args), model.config)
    if (args.calib is None) == (args.samples is None):
        raise ValueError("provide exactly one of --calib or --samples")
    if args.calib is not None:
        calib = CalibrationResult.from_dict(_read_json(args.calib))
        qm = mquant_quantize(model, pcfg, calib=calib)
    else:
        samples = _load_samples(args.samples, model.config.d_model)
        qm = mquant_quantize(model, pcfg, samples=samples)
    fileio.write_json(args.out, qmodel_to_dict(qm))
    triggered = sum(1 for p in qm.plans.values() if p.triggered)
    print(f"wrote {args.out}")
    print(f"stages: {' -> '.join(qm.stages)}")
    print(
        f"weights: {len(qm.weight_grids)} grids at {pcfg.bits_w}b "
        f"({pcfg.weight_granularity}), activations at {pcfg.bits_a}b"
    )
    print(f"split plans: {len(qm.plans)} built, {triggered} triggered")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    qm = qmodel_from_dict(_read_json(args.qmodel))
    samples = _load_samples(args.samples, qm.model.config.d_model)
    report = evaluate(qm, samples, dynamic=args.dynamic)
    fileio.write_json(args.out, report)
    m = report["metrics"]
    print(f"wrote {args.out}")
    print(
        f"{report['activation_mode']}: cosine mean {m['cosine_mean']:.6f}, "
        f"min {m['cosine_min']:.6f}, mse mean {m['mse_mean']:.3e} "
        f"over {m['samples']} samples"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    qm = qmodel_from_dict(_read_json(args.qmodel))
    lengths = []
    for tok in filter(str.strip, args.lengths.split(",")):
        try:
            lengths.append(int(tok))
        except ValueError:
            raise ValueError(f"--lengths takes comma-separated ints, got {tok!r}") from None
        if lengths[-1] < 1:
            raise ValueError(f"--lengths takes lengths >= 1, got {tok!r}")
    report = bench(qm, lengths, seed=args.seed)
    fileio.write_json(args.out, report)
    print(f"wrote {args.out}")
    for entry in report["entries"]:
        print(
            f"L={entry['length']:>5}  static {entry['static']['scale_ops']:>6} ops  "
            f"dynamic {entry['dynamic']['scale_ops']:>6} ops"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mquant",
        description="Post-training quantization toolkit for a toy multimodal transformer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="build and save the seeded float model")
    p.add_argument("--config", help=CONFIG_HELP)
    p.add_argument("--seed", type=int, help="model build seed")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_model)

    p = sub.add_parser("gen-samples", help="write a synthetic calibration batch")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--length", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-model", type=int, default=64, dest="d_model")
    p.add_argument("--layout", help="fixed layout string like tvvt (default: random spans)")
    p.set_defaults(fn=cmd_gen_samples)

    p = sub.add_parser("calibrate", help="record activation ranges from samples")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True, help="batch file or directory of batches")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("quantize", help="run the staged pipeline")
    _add_quant_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--calib", help="calibration JSON from the calibrate step")
    p.add_argument("--samples", help="calibrate inline from this batch instead")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("eval", help="score a quantized model against its float reference")
    p.add_argument("--qmodel", required=True)
    p.add_argument("--samples", required=True, help="batch file or directory of batches")
    p.add_argument("--report", required=True, dest="out")
    p.add_argument(
        "--dynamic-baseline",
        action="store_true",
        dest="dynamic",
        help="score the per-token dynamic path instead of the static grids",
    )
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="static vs dynamic scale-op counts")
    p.add_argument("--qmodel", required=True)
    p.add_argument("--lengths", default="1,16,128")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True, dest="out")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
