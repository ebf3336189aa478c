"""mquant benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; mquant is imported from ./src.  Set-up
(import, artifacts, CLI quantize, qmodel load, one warm-up op) is measured
in this process and in SETUP_PROBES fresh ones, and setup_s is their median.
Then operations run for --seconds and every output is checked.  With
--trace 1 untraced and traced op cycles alternate: the last line carries
the per-layer metrics of the traced ops and the tracing overhead.

Op timings are gated in calibration units (unit "cal"): a run's median op
time divided by the median time of a fixed calibration kernel that the
runner times before every op.  On a shared 2-vCPU VM the host speed
changed by up to 1.6x for a minute or more at a time; the kernel slows with
it, so the ratio holds where raw seconds do not.  The raw seconds are
printed too, in the report.

The last line of stdout is the result object; the line before it is a
report with the machine facts, the raw-second metrics under their
workload-specific names, the tail percentile and its sample count.
"""

import time

_T0 = time.perf_counter()

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quantize_p50_cal": "cal",
    "qmodel_bytes": "bytes",
    "static_p50_cal": "cal",
    "dynamic_p50_cal": "cal",
    "tail_cal": "cal",
    "tok_per_cal": "1/cal",
    "static_cosine_mean": "cosine",
    "dynamic_cosine_mean": "cosine",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("prefill_long", "eval_mixed", "desk_cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def limit_blas_threads(nproc):
    """Cap BLAS pools at nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_facts(seed):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def calibration_s():
    """Time a fixed kernel owned by the benchmark: an interpreter loop plus
    a small-array numpy loop, the two kinds of work mquant's ops are made
    of.  It never calls mquant, so a change to mquant cannot move it."""
    import numpy as np

    a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    for _ in range(8):
        out = np.zeros((64, 64))
        for k in range(64):
            out += a[:, k : k + 1] * a[k : k + 1, :]
    return time.perf_counter() - t0


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples above it.  With ten or fewer samples none has, and the
    maximum is reported as p100."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def median(values):
    return statistics.median(values) if values else 0.0


def run_probe(args):
    """One more set-up in a fresh process; returns its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_loop(wl, kinds, seconds, tracer):
    """Run ops until the deadline, finishing whole cycles: one op per kind,
    and with a tracer, one untraced then one traced pass over the kinds.
    The calibration kernel is timed before each op, outside its timing."""
    cycle = len(kinds) * (2 if tracer else 1)
    records, index = [], 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (index - 1) % cycle:
        pos = (index - 1) % cycle
        kind, traced = kinds[pos % len(kinds)], pos >= len(kinds)
        inputs = wl.inputs(index)
        rec = {"kind": kind, "traced": traced, "ok": False, "calls": {}, "cosine": None,
               "tokens": wl.tokens(inputs), "cal": calibration_s()}
        try:
            if traced:
                tracer.op = index
                with tracer:
                    rec["calls"], result = wl.run(kind, inputs)
            else:
                rec["calls"], result = wl.run(kind, inputs)
            rec["cosine"] = wl.check(kind, inputs, result)
            rec["ok"] = True
        except Exception:
            if not any(not r["ok"] for r in records):
                print(f"op {index} ({kind}) failed:", file=sys.stderr)
                traceback.print_exc()
        rec["seconds"] = sum(rec["calls"].values())
        records.append(rec)
        index += 1
    return records


def summarize(records, quantize_samples, cosines):
    """Raw-second figures of the untraced ops that passed their checks."""
    timed = [r for r in records if r["ok"] and not r["traced"]]
    op_seconds = [r["seconds"] for r in timed]
    tail_s, tail_pct, tail_n = tail(op_seconds) if op_seconds else (0.0, 0.0, 0)
    by_call = lambda name: [r["calls"][name] for r in timed if name in r["calls"]]
    return {
        "quantize_p50_s": median(by_call("quantize") or quantize_samples),
        "static_p50_s": median(by_call("static")),
        "dynamic_p50_s": median(by_call("dynamic")),
        "tail_s": tail_s,
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "tok_s": sum(r["tokens"] for r in timed) / sum(op_seconds) if op_seconds else 0.0,
        "static_cosine_mean": statistics.fmean(cosines["static"]) if cosines["static"] else 0.0,
        "dynamic_cosine_mean": statistics.fmean(cosines["dynamic"]) if cosines["dynamic"] else 0.0,
        "ops_by_kind": {k: len(by_call(k)) for k in cosines},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mquant" / "__init__.py").is_file():
        print(f"error: no mquant sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import mquant
    import workloads

    if Path(mquant.__file__).resolve().parent != SRC / "mquant":
        print(f"error: imported mquant from {mquant.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        wl.setup()
        warm_inputs = wl.inputs(0)
        _, warm_result = wl.run("static", warm_inputs)
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        setup_samples = [setup_s] + [run_probe(args) for _ in range(SETUP_PROBES)]
        # (calibration, quantize) pairs, for workloads whose ops do not quantize
        quantize_pairs = [(calibration_s(), wl.quantize_cli()) for _ in range(wl.quantize_repeats)]
        attempted, failed = 1, 0
        cosines = {kind: [] for kind in workloads.KINDS}
        try:
            setup_cosines, extra_ops = wl.verify_setup(warm_inputs, warm_result)
            attempted += extra_ops
            for kind, cos in setup_cosines.items():
                cosines[kind].append(cos)
        except Exception:
            failed += 1
            print("set-up check failed:", file=sys.stderr)
            traceback.print_exc()

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        records = timed_loop(wl, workloads.KINDS, args.seconds, tracer)
        failed += wl.verify_end()

    attempted += len(records)
    failed += sum(not r["ok"] for r in records)
    for r in records:
        if r["ok"] and r["cosine"] is not None:
            cosines[r["kind"]].append(r["cosine"])
    cal_s = median([r["cal"] for r in records if not r["traced"]])
    raw = summarize(records, [q for _, q in quantize_pairs], cosines)
    # quantize samples taken after set-up are scaled by the kernel times
    # taken next to them, not by the loop's, since host speed drifts
    quantize_cal_s = median([c for c, _ in quantize_pairs]) if quantize_pairs else cal_s
    values = {
        "setup_s": median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quantize_p50_cal": raw["quantize_p50_s"] / quantize_cal_s,
        "qmodel_bytes": wl.qmodel_bytes,
        "static_p50_cal": raw["static_p50_s"] / cal_s,
        "dynamic_p50_cal": raw["dynamic_p50_s"] / cal_s,
        "tail_cal": raw["tail_s"] / cal_s,
        "tok_per_cal": raw["tok_s"] * cal_s,
        "static_cosine_mean": raw["static_cosine_mean"],
        "dynamic_cosine_mean": raw["dynamic_cosine_mean"],
    }
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "metrics": {
            "setup_s": {"value": values["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": values["peak_rss_mb"], "unit": "MB"},
            "error_rate": {"value": failed / attempted, "unit": "ratio"},
            "qmodel_bytes": {"value": values["qmodel_bytes"], "unit": "bytes"},
            "calibration_p50_s": {"value": cal_s, "unit": "s"},
            **{
                label: {"value": raw[key], "unit": unit}
                for key, (label, unit) in wl.report_names.items()
            },
        },
        "tail_percentile": raw["tail_percentile"],
        "tail_samples": raw["tail_samples"],
        "setup_samples_s": setup_samples,
        "ops_by_kind": raw["ops_by_kind"],
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        traced = [r for r in records if r["traced"]]
        base = sum(r["seconds"] for r in records if not r["traced"])
        overhead = sum(r["seconds"] for r in traced) / base - 1.0 if base else 0.0
        metrics = spans.layer_metrics(tracer, len(traced), overhead)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["traced_ops"] = len(traced)
    else:
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
