import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from mquant import model as model_module
from mquant import pipeline
from mquant.cli import main
from mquant.fileio import save_samples, tensor_to_bytes
from mquant.pipeline import qmodel_from_dict


@pytest.fixture
def workdir(tmp_path):
    cfg = {
        "d_model": 16, "n_heads": 2, "vision_blocks": 1,
        "llm_blocks": 1, "mlp_ratio": 2,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, str(cfg_path)


def run(*argv):
    return main(list(argv))


def test_full_workflow(workdir, capsys):
    tmp, cfg = workdir
    model = str(tmp / "model.json")
    calib_samples = str(tmp / "calib.mqs")
    eval_samples = str(tmp / "eval.mqs")
    calib = str(tmp / "calib.json")
    qmodel = str(tmp / "qmodel.json")
    report = str(tmp / "report.json")
    bench_out = str(tmp / "bench.json")

    assert run("gen-model", "--config", cfg, "--out", model) == 0
    assert run("gen-samples", "--out", calib_samples, "--count", "4",
               "--length", "8", "--seed", "1", "--d-model", "16") == 0
    assert run("gen-samples", "--out", eval_samples, "--count", "2",
               "--length", "6", "--seed", "2", "--d-model", "16") == 0
    assert run("calibrate", "--model", model,
               "--samples", calib_samples, "--out", calib) == 0
    assert run("quantize", "--config", cfg, "--model", model,
               "--calib", calib, "--out", qmodel) == 0
    assert run("eval", "--qmodel", qmodel, "--samples", eval_samples,
               "--report", report) == 0
    assert run("bench", "--qmodel", qmodel, "--lengths", "1,8",
               "--report", bench_out) == 0

    out = capsys.readouterr().out
    assert "cosine mean" in out
    rep = json.loads((tmp / "report.json").read_text())
    assert rep["kind"] == "eval"
    assert 0.9 < rep["metrics"]["cosine_mean"] <= 1.0
    assert rep["counters"]["scale_ops_total"] == sum(
        rep["counters"]["scale_ops_by_sample"]
    )
    ben = json.loads((tmp / "bench.json").read_text())
    assert [e["length"] for e in ben["entries"]] == [1, 8]
    assert "rtn" in ben["weight_solver"]


def test_quantize_inline_calibration(workdir):
    tmp, cfg = workdir
    model = str(tmp / "model.json")
    samples = str(tmp / "s.mqs")
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "3", "--length", "6",
        "--d-model", "16")
    assert run("quantize", "--config", cfg, "--model", model,
               "--samples", samples, "--out", str(tmp / "q.json")) == 0


def test_eval_dynamic_baseline(workdir, capsys):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    qmodel = str(tmp / "q.json")
    report = str(tmp / "r.json")
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "3", "--length", "6",
        "--d-model", "16")
    run("quantize", "--config", cfg, "--model", model,
        "--samples", samples, "--out", qmodel)
    assert run("eval", "--qmodel", qmodel, "--samples", samples,
               "--report", report, "--dynamic-baseline") == 0
    rep = json.loads((tmp / "r.json").read_text())
    assert rep["activation_mode"] == "dynamic_per_token"
    assert "dynamic_per_token" in capsys.readouterr().out


def test_samples_directory_loading(workdir):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    sdir = tmp / "batches"
    sdir.mkdir()
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", str(sdir / "a.mqs"), "--count", "2",
        "--length", "6", "--seed", "1", "--d-model", "16")
    run("gen-samples", "--out", str(sdir / "b.mqs"), "--count", "3",
        "--length", "6", "--seed", "2", "--d-model", "16")
    calib = str(tmp / "c.json")
    assert run("calibrate", "--model", model,
               "--samples", str(sdir), "--out", calib) == 0
    assert json.loads((tmp / "c.json").read_text())["sample_count"] == 5


def test_empty_samples_directory_fails(workdir, capsys):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    sdir = tmp / "empty"
    sdir.mkdir()
    run("gen-model", "--config", cfg, "--out", model)
    code = run("calibrate", "--model", model,
               "--samples", str(sdir), "--out", str(tmp / "c.json"))
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_fingerprint_mismatch_fails(workdir, capsys):
    tmp, cfg = workdir
    model_a = str(tmp / "a.json")
    model_b = str(tmp / "b.json")
    samples = str(tmp / "s.mqs")
    calib = str(tmp / "c.json")
    run("gen-model", "--config", cfg, "--out", model_a)
    run("gen-model", "--config", cfg, "--seed", "9", "--out", model_b)
    run("gen-samples", "--out", samples, "--count", "3", "--length", "6",
        "--d-model", "16")
    run("calibrate", "--model", model_a,
        "--samples", samples, "--out", calib)
    code = run("quantize", "--config", cfg, "--model", model_b,
               "--calib", calib, "--out", str(tmp / "q.json"))
    assert code == 2
    assert "calibration was made for" in capsys.readouterr().err


def test_eval_rejects_other_schema_version(workdir, capsys):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    qmodel = tmp / "q.json"
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    run("quantize", "--config", cfg, "--model", model,
        "--samples", samples, "--out", str(qmodel))
    q = json.loads(qmodel.read_text())
    q["schema_version"] = 999
    qmodel.write_text(json.dumps(q))
    code = run("eval", "--qmodel", str(qmodel), "--samples", samples,
               "--report", str(tmp / "r.json"))
    assert code == 2
    assert "schema_version" in capsys.readouterr().err


def test_quantize_hashes_the_float_model_twice_and_eval_once(workdir, monkeypatch):
    """quantize hashes the float model to check its model file and to name
    it in the calibration; eval of the qmodel it writes hashes it once, to
    check it against the calibration."""
    tmp, cfg = workdir
    model, samples, qmodel = str(tmp / "m.json"), str(tmp / "s.mqs"), str(tmp / "q.json")
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6", "--d-model", "16")
    calls = []
    real = model_module.model_fingerprint

    def counted(m):
        calls.append(real(m))
        return calls[-1]

    for module in (model_module, pipeline):
        monkeypatch.setattr(module, "model_fingerprint", counted)
    assert run("quantize", "--model", model, "--samples", samples, "--out", qmodel) == 0
    assert len(calls) == 2
    calls.clear()
    assert run("eval", "--qmodel", qmodel, "--samples", samples,
               "--report", str(tmp / "r.json")) == 0
    assert calls == [json.loads(Path(model).read_text())["fingerprint"]]


def test_gen_model_refuses_every_key_that_is_not_a_model_key(workdir, capsys):
    """gen-model builds a model only, so a --config that also sets
    quantization keys (or unknown ones) exits 2 naming each of them, and
    writes nothing."""
    tmp, _ = workdir
    cfg = tmp / "mixed.json"
    cfg.write_text(json.dumps({"d_model": 16, "bits_w": 4, "rms": False, "bits_a": 16, "x": 1}))
    out = tmp / "m.json"
    assert run("gen-model", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "unknown config keys for gen-model: ['bits_a', 'bits_w', 'rms', 'x']" in err
    assert not out.exists()


def test_unknown_config_key_fails(workdir, capsys):
    tmp, _ = workdir
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}))
    code = run("gen-model", "--config", str(bad), "--out", str(tmp / "m.json"))
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_calibration_source_fails(workdir, capsys):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    run("gen-model", "--config", cfg, "--out", model)
    code = run("quantize", "--config", cfg, "--model", model,
               "--out", str(tmp / "q.json"))
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_cli_flag_overrides(workdir):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    qmodel = str(tmp / "q.json")
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "3", "--length", "6",
        "--d-model", "16")
    assert run("quantize", "--config", cfg, "--model", model,
               "--samples", samples, "--out", qmodel,
               "--bits-w", "4", "--no-rms") == 0
    q = json.loads((tmp / "q.json").read_text())
    assert q["config"]["bits_w"] == 4
    assert q["config"]["rms"] is False
    assert qmodel_from_dict(q).plans == {}


def test_split_bits_without_rms_fails(workdir, capsys):
    """--split-bits sets the split row's grid, which --no-rms never builds;
    the pair exits 2 naming both keys and writes no qmodel."""
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "3", "--length", "6",
        "--d-model", "16")
    capsys.readouterr()
    assert run("quantize", "--config", cfg, "--model", model, "--samples", samples,
               "--out", str(tmp / "q.json"), "--no-rms", "--split-bits", "16") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: split_bits=16 needs rms: with rms=false")
    assert not (tmp / "q.json").exists()


def test_quantize_reports_one_grid_per_linear(tmp_path, capsys):
    """The default model has 28 linears, the four split down-projections
    included, and quantize counts a grid for each."""
    model, samples = str(tmp_path / "m.json"), str(tmp_path / "s.mqs")
    run("gen-model", "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "8")
    capsys.readouterr()
    assert run("quantize", "--model", model, "--samples", samples,
               "--out", str(tmp_path / "q.json")) == 0
    out = capsys.readouterr().out
    assert "weights: 28 grids at 8b" in out
    assert "split plans: 4 built" in out


@pytest.mark.parametrize("command", ["quantize", "gen-samples"])
def test_a_directory_in_place_of_a_file_exits_2(workdir, capsys, command):
    """An OS error on a path the user gave, here a directory where a file
    belongs, is an error line and exit 2, not a traceback."""
    tmp, cfg = workdir
    model, samples = str(tmp / "m.json"), str(tmp / "s.mqs")
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6", "--d-model", "16")
    capsys.readouterr()
    argv = {
        "quantize": ("quantize", "--config", cfg, "--model", str(tmp), "--samples", samples,
                     "--out", str(tmp / "q.json")),
        "gen-samples": ("gen-samples", "--out", str(tmp)),
    }[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_calibration_without_visual_tokens_names_vision_act(workdir, capsys):
    """A text-only batch leaves the vision blocks' streams empty: the
    error names the vision_act grids and the cause, and writes nothing."""
    tmp, cfg = workdir
    model, samples, out = str(tmp / "m.json"), str(tmp / "t.mqs"), tmp / "c.json"
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "8",
        "--d-model", "16", "--layout", "tttttttt")
    capsys.readouterr()
    assert run("calibrate", "--model", model, "--samples", samples,
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "calibration stream is empty for vision_act" in err
    assert "no calibration sample holds a visual token" in err
    assert not out.exists()


def test_gen_model_deterministic(workdir, capsys):
    tmp, cfg = workdir
    run("gen-model", "--config", cfg, "--out", str(tmp / "m1.json"))
    run("gen-model", "--config", cfg, "--out", str(tmp / "m2.json"))
    out = capsys.readouterr().out
    prints = [line for line in out.splitlines() if "fingerprint" in line]
    f1 = prints[0].split("fingerprint ")[1].rstrip(")")
    f2 = prints[1].split("fingerprint ")[1].rstrip(")")
    assert f1 == f2
    a = json.loads((tmp / "m1.json").read_text())
    b = json.loads((tmp / "m2.json").read_text())
    assert a == b


@pytest.mark.parametrize("artifact", ["qmodel", "calibration"])
def test_other_artifact_as_model_fails(workdir, capsys, artifact):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    paths = {"qmodel": str(tmp / "q.json"), "calibration": str(tmp / "c.json")}
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    run("calibrate", "--model", model,
        "--samples", samples, "--out", paths["calibration"])
    run("quantize", "--config", cfg, "--model", model,
        "--calib", paths["calibration"], "--out", paths["qmodel"])
    capsys.readouterr()
    code = run("quantize", "--config", cfg, "--model", paths[artifact],
               "--samples", samples, "--out", str(tmp / "q2.json"))
    assert code == 2
    assert f"not a model file (kind='{artifact}')" in capsys.readouterr().err


def test_eval_rejects_samples_of_another_width(workdir, capsys):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    wide = str(tmp / "wide.mqs")
    qmodel = str(tmp / "q.json")
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    run("gen-samples", "--out", wide, "--count", "2", "--length", "6",
        "--d-model", "32")
    run("quantize", "--config", cfg, "--model", model,
        "--samples", samples, "--out", qmodel)
    code = run("eval", "--qmodel", qmodel, "--samples", wide,
               "--report", str(tmp / "r.json"))
    assert code == 2
    assert "sample width 32 != model d_model 16" in capsys.readouterr().err


@pytest.mark.parametrize("d_model", ["0", "-5"])
def test_gen_samples_of_no_width_exits_2_naming_d_model(workdir, capsys, d_model):
    tmp, _ = workdir
    out = tmp / "s.mqs"
    assert run("gen-samples", "--out", str(out), "--count", "2", "--length", "6",
               "--d-model", d_model) == 2
    assert f"d_model must be >= 1, got {d_model}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_of_a_batch_holding_an_empty_sample_exits_2_naming_it(workdir, capsys):
    """A 0-row sample failed in the forward, with "layout must contain at
    least one token"; now the load names the file and the sample."""
    tmp, cfg = workdir
    model, qmodel, samples = (str(tmp / name) for name in ("m.json", "q.json", "s.mqs"))
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6", "--d-model", "16")
    run("quantize", "--config", cfg, "--model", model, "--samples", samples, "--out", qmodel)
    batch = tmp / "empty.mqs"
    records = [
        tensor_to_bytes(np.ones((3, 16))) + bytes([0, 1, 0]),
        tensor_to_bytes(np.zeros((0, 16))),
    ]
    batch.write_bytes((2).to_bytes(8, "little") + b"".join(records))
    capsys.readouterr()
    code = run("eval", "--qmodel", qmodel, "--samples", str(batch),
               "--report", str(tmp / "r.json"))
    assert code == 2
    assert f"{batch}: sample 1 has shape (0, 16)" in capsys.readouterr().err
    assert not (tmp / "r.json").exists()


def write_batch(path, widths, seed=0):
    rng = np.random.default_rng(seed)
    tags = np.array([0, 1, 1, 0, 1, 0])
    save_samples(path, [(rng.normal(size=(6, w)), tags) for w in widths])


def test_batch_file_with_mixed_sample_widths_fails(workdir, capsys):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    batch = tmp / "mixed.mqs"
    run("gen-model", "--config", cfg, "--out", model)
    write_batch(batch, [16, 16, 32])
    capsys.readouterr()
    code = run("calibrate", "--model", model, "--samples", str(batch),
               "--out", str(tmp / "c.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{batch}: sample 2 has width 32, but {batch}: sample 0 has width 16" in err
    assert not (tmp / "c.json").exists()


def test_batch_directory_with_mixed_sample_widths_fails(workdir, capsys):
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    sdir = tmp / "batches"
    sdir.mkdir()
    run("gen-model", "--config", cfg, "--out", model)
    write_batch(sdir / "a.mqs", [16, 16])
    write_batch(sdir / "b.mqs", [32])
    capsys.readouterr()
    code = run("quantize", "--model", model, "--samples", str(sdir),
               "--out", str(tmp / "q.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert (
        f"{sdir / 'b.mqs'}: sample 0 has width 32, "
        f"but {sdir / 'a.mqs'}: sample 0 has width 16"
    ) in err
    assert not (tmp / "q.json").exists()


@pytest.mark.parametrize("command", ["calibrate", "quantize", "eval"])
def test_samples_of_another_width_fail_at_load(workdir, capsys, command):
    """The width check names the batch file, which the check in the forward
    cannot, so a pass here shows no forward ran first."""
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    qmodel = str(tmp / "q.json")
    wide = tmp / "wide.mqs"
    run("gen-model", "--config", cfg, "--out", model)
    write_batch(samples, [16, 16])
    write_batch(wide, [32, 32])
    assert run("quantize", "--model", model, "--samples", samples, "--out", qmodel) == 0
    capsys.readouterr()
    argv = {
        "calibrate": ["--model", model, "--out", str(tmp / "o.json")],
        "quantize": ["--model", model, "--out", str(tmp / "o.json")],
        "eval": ["--qmodel", qmodel, "--report", str(tmp / "o.json")],
    }[command]
    assert run(command, *argv, "--samples", str(wide)) == 2
    assert f"{wide}: sample width 32 != model d_model 16" in capsys.readouterr().err
    assert not (tmp / "o.json").exists()


def test_model_width_comes_from_the_model_not_the_config(workdir):
    """A 16-wide model quantizes, evaluates and benches without --config
    (whose defaults say 64 wide).  The qmodel holds the model keys once, in
    its float model's config, and the eval report echoes them with the
    quantization keys."""
    tmp, cfg = workdir
    model = str(tmp / "m16.json")
    samples = str(tmp / "s16.mqs")
    qmodel = tmp / "q.json"
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "3", "--length", "6",
        "--d-model", "16")
    assert run("quantize", "--model", model, "--samples", samples,
               "--out", str(qmodel)) == 0
    assert run("eval", "--qmodel", str(qmodel), "--samples", samples,
               "--report", str(tmp / "r.json")) == 0
    assert run("bench", "--qmodel", str(qmodel), "--lengths", "1,8",
               "--report", str(tmp / "b.json")) == 0
    q = json.loads(qmodel.read_text())
    assert q["float_model"]["config"]["d_model"] == 16
    assert q["float_model"]["config"]["seed"] == 0
    assert "d_model" not in q["config"] and "seed" not in q["config"]
    rep = json.loads((tmp / "r.json").read_text())
    assert rep["config"] == q["float_model"]["config"] | q["config"]


def test_model_keys_that_disagree_with_the_model_fail(workdir, capsys):
    """The model keys of quantize's --config cannot change a stored model,
    so a value that differs from the model's own is an error, not ignored."""
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    configs = {
        "seeded": {"seed": 5},
        "wide": {"d_model": 32, "n_heads": 2},
        "same": json.loads(Path(cfg).read_text()) | {"seed": 0},
    }
    for name, d in configs.items():
        (tmp / f"{name}.json").write_text(json.dumps(d))
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "3", "--length", "6",
        "--d-model", "16")
    capsys.readouterr()
    base = ["quantize", "--model", model, "--samples", samples, "--out", str(tmp / "o.json")]
    assert run(*base, "--config", str(tmp / "seeded.json")) == 2
    assert "seed=5 disagrees with the model's seed=0" in capsys.readouterr().err
    assert run(*base, "--config", str(tmp / "wide.json")) == 2
    assert "d_model=32 disagrees with the model's d_model=16" in capsys.readouterr().err
    assert not (tmp / "o.json").exists()
    assert run(*base, "--config", str(tmp / "same.json")) == 0


@pytest.mark.parametrize(
    "flag",
    [
        "gen-model --no-rms",
        "calibrate --bits-a 4",
        "calibrate --config {cfg}",
        "quantize --no-aifs",
        "quantize --seed 0",
    ],
)
def test_a_flag_the_subcommand_does_not_read_exits_2(workdir, capsys, flag):
    """Each subcommand takes only the flags it reads: gen-model the model
    config and seed, calibrate no config at all, and quantize no seed (the
    model holds its own) and no row order switch.  Any other flag is a
    usage error, exit 2, and nothing is written."""
    tmp, cfg = workdir
    model, samples, out = str(tmp / "m.json"), str(tmp / "s.mqs"), tmp / "o.json"
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6", "--d-model", "16")
    command, *extra = shlex.split(flag.format(cfg=cfg))
    argv = {
        "gen-model": ["--config", cfg],
        "calibrate": ["--model", model, "--samples", samples],
        "quantize": ["--config", cfg, "--model", model, "--samples", samples],
    }[command]
    assert run(command, *argv, "--out", str(out)) == 0
    out.unlink()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(command, *argv, *extra, "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_qmodel_config_that_disagrees_with_its_float_model_fails(workdir, capsys, command):
    """A qmodel file whose config names another seed, head count and width
    than its stored float model is refused at load, naming the key, instead
    of running the stored model under a config it does not describe."""
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    qmodel = tmp / "q.json"
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    run("quantize", "--model", model, "--samples", samples, "--out", str(qmodel))
    q = json.loads(qmodel.read_text())
    q["config"].update(seed=5, n_heads=8, d_model=128)
    qmodel.write_text(json.dumps(q))
    capsys.readouterr()
    argv = {"eval": ["--samples", samples], "bench": ["--lengths", "1,8"]}[command]
    assert run(command, "--qmodel", str(qmodel), *argv, "--report", str(tmp / "o.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "config d_model=128 disagrees with the model's d_model=16" in err
    assert not (tmp / "o.json").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("gen-model", "seed", "0"),
        ("gen-model", "n_heads", 2.0),
        ("gen-model", "vision_weight_mean_bias", "0.02"),
        ("quantize", "rms", "false"),
        ("quantize", "symmetric_activations", "no"),
        ("quantize", "group_size", "8"),
    ],
)
def test_config_values_of_the_wrong_type_fail(workdir, capsys, command, key, value):
    """A string "false" is not false, nor 2.0 an int: the key is named and
    nothing runs."""
    tmp, cfg = workdir
    model = str(tmp / "m.json")
    samples = str(tmp / "s.mqs")
    run("gen-model", "--config", cfg, "--out", model)
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({**json.loads((tmp / "config.json").read_text()), key: value}))
    capsys.readouterr()
    out = tmp / "o.json"
    if command == "gen-model":
        code = run("gen-model", "--config", str(bad), "--out", str(out))
    else:
        code = run("quantize", "--config", str(bad), "--model", model,
                   "--samples", samples, "--out", str(out))
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: config key '{key}' must be" in captured.err
    assert captured.out == "" and not out.exists()


def _drop_llm_point(q):
    del q["calibration"]["points"]["llm.0.input"]


def _drop_vision_point(c):
    del c["points"]["vision.0.input"]


def _drop_head_weight(m):
    del m["tensors"]["head.w"]


@pytest.mark.parametrize(
    "artifact, tamper, command, named",
    [
        ("qmodel", _drop_llm_point, "eval", "missing ['llm.0.input'], extra []"),
        ("calib", _drop_vision_point, "quantize", "missing ['vision.0.input'], extra []"),
        ("model", _drop_head_weight, "calibrate", "model file has no 'head.w'"),
    ],
    ids=["qmodel-short-msq", "calib-no-vision_act", "model-no-head.w"],
)
def test_artifact_mismatches_fail_at_load(workdir, capsys, artifact, tamper, command, named):
    """An artifact missing a field, or a calibration without the point of
    one of its model's blocks, fails when it is loaded, with the field or
    point named."""
    tmp, cfg = workdir
    paths = {name: tmp / f"{name}.json" for name in ("model", "calib", "qmodel")}
    samples = str(tmp / "s.mqs")
    run("gen-model", "--config", cfg, "--out", str(paths["model"]))
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    run("calibrate", "--model", str(paths["model"]), "--samples", samples,
        "--out", str(paths["calib"]))
    run("quantize", "--model", str(paths["model"]), "--calib", str(paths["calib"]),
        "--out", str(paths["qmodel"]))
    d = json.loads(paths[artifact].read_text())
    tamper(d)
    paths[artifact].write_text(json.dumps(d))
    capsys.readouterr()
    out = str(tmp / "o.json")
    argv = {
        "eval": ["eval", "--qmodel", str(paths["qmodel"]), "--samples", samples,
                 "--report", out],
        "quantize": ["quantize", "--model", str(paths["model"]),
                     "--calib", str(paths["calib"]), "--out", out],
        "calibrate": ["calibrate", "--model", str(paths["model"]),
                      "--samples", samples, "--out", out],
    }[command]
    assert run(*argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, value, match",
    [
        ("config", {"bogus": 1}, "unknown keys ['bogus']"),
        ("tensors", "abc", "section 'tensors' must be an object"),
        ("norms", [], "section 'norms' must be an object"),
        ("flags", {"online_fht": "yes"}, "flag 'online_fht' must be an object"),
    ],
)
def test_malformed_model_file_fails_at_the_boundary(workdir, capsys, section, value, match):
    tmp, cfg = workdir
    model = tmp / "m.json"
    samples = str(tmp / "s.mqs")
    run("gen-model", "--config", cfg, "--out", str(model))
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    d = json.loads(model.read_text())
    if section == "config":
        d["config"].update(value)
    else:
        d[section] = value
    model.write_text(json.dumps(d))
    capsys.readouterr()
    code = run("calibrate", "--model", str(model),
               "--samples", samples, "--out", str(tmp / "c.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err


def _set(*path_and_value):
    """A tamper that sets the entry at path (keys and indices) to value; an
    empty path replaces the whole file."""
    *path, value = path_and_value

    def tamper(d):
        if not path:
            return value
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return tamper


@pytest.mark.parametrize(
    "artifact, tamper, match",
    [
        ("calib", _set("points", 5), "calibration points must be an object, got int"),
        ("calib", _set("points", "llm.0.input", []),
         "calibration point 'llm.0.input' must be an object, got list"),
        ("calib", _set("points", "llm.0.input", "visual", "x"),
         "calibration llm.0.input.visual must be a [lo, hi] pair of floats, got 'x'"),
        ("calib", _set("points", "vision.0.input", "visual", [1.0]),
         "calibration vision.0.input.visual must be a [lo, hi] pair of floats, got [1.0]"),
        ("calib", _set("points", "llm.0.input", "text", [0, 1.0]),
         "calibration llm.0.input.text must be a [lo, hi] pair of floats, got [0, 1.0]"),
        ("calib", _set([]), "calibration file must be an object, got list"),
        ("qmodel", _set("config", []),
         "quantized model file section 'config' must be an object, got list"),
        ("qmodel", _set("calibration", "x"),
         "quantized model file section 'calibration' must be an object, got str"),
        ("qmodel", _set([]), "quantized model file must be an object, got list"),
        ("config", _set([]), "must be an object, got list"),
    ],
)
def test_malformed_artifact_fails_at_the_boundary(workdir, capsys, artifact, tamper, match):
    """A calibration, qmodel or --config file of the wrong JSON shape ends
    in an error naming the field and exit 2, not a traceback, and writes
    nothing."""
    tmp, cfg = workdir
    paths = {name: tmp / f"{name}.json" for name in ("model", "calib", "qmodel")}
    paths["config"] = tmp / "config.json"
    samples = str(tmp / "s.mqs")
    run("gen-model", "--config", cfg, "--out", str(paths["model"]))
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    run("calibrate", "--model", str(paths["model"]), "--samples", samples,
        "--out", str(paths["calib"]))
    run("quantize", "--model", str(paths["model"]), "--calib", str(paths["calib"]),
        "--out", str(paths["qmodel"]))
    d = json.loads(paths[artifact].read_text())
    replaced = tamper(d)
    paths[artifact].write_text(json.dumps(d if replaced is None else replaced))
    capsys.readouterr()
    out = tmp / "o.json"
    if artifact == "qmodel":
        code = run("eval", "--qmodel", str(paths["qmodel"]), "--samples", samples,
                   "--report", str(out))
    else:
        code = run("quantize", "--config", str(paths["config"]), "--model",
                   str(paths["model"]), "--calib", str(paths["calib"]), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert not out.exists()


@pytest.mark.parametrize(
    "tamper, match",
    [
        (_set("sample_count", "x"), "calibration key 'sample_count' must be an int"),
        (_set("fingerprint", 7), "calibration key 'fingerprint' must be a string"),
    ],
)
def test_calibration_grids_and_keys_are_checked_on_load(workdir, capsys, tamper, match):
    """A calibration key of the wrong type fails quantize --calib before
    any qmodel is written."""
    tmp, cfg = workdir
    model, calib, out = tmp / "m.json", tmp / "c.json", tmp / "q.json"
    samples = str(tmp / "s.mqs")
    run("gen-model", "--config", cfg, "--out", str(model))
    run("gen-samples", "--out", samples, "--count", "2", "--length", "6",
        "--d-model", "16")
    run("calibrate", "--model", str(model), "--samples", samples, "--out", str(calib))
    d = json.loads(calib.read_text())
    tamper(d)
    calib.write_text(json.dumps(d))
    capsys.readouterr()
    code = run("quantize", "--model", str(model), "--calib", str(calib), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert not out.exists()


@pytest.fixture
def calibrated(workdir):
    """A model, a sample batch, and the calibration and qmodel made from
    them, as paths in the work directory."""
    tmp, cfg = workdir
    paths = {name: tmp / f"{name}.json" for name in ("model", "calib", "qmodel")}
    paths["samples"] = tmp / "s.mqs"
    run("gen-model", "--config", cfg, "--out", str(paths["model"]))
    run("gen-samples", "--out", str(paths["samples"]), "--count", "2", "--length", "6",
        "--d-model", "16")
    run("calibrate", "--model", str(paths["model"]), "--samples", str(paths["samples"]),
        "--out", str(paths["calib"]))
    run("quantize", "--model", str(paths["model"]), "--calib", str(paths["calib"]),
        "--out", str(paths["qmodel"]))
    return paths


def _refused(paths, capsys, command) -> str:
    """The error of quantize --calib (command "quantize") or eval on the
    files in paths, checked to exit 2 and write nothing."""
    out = paths["model"].parent / "out.json"
    capsys.readouterr()
    if command == "quantize":
        code = run("quantize", "--model", str(paths["model"]), "--calib", str(paths["calib"]),
                   "--out", str(out))
    else:
        code = run("eval", "--qmodel", str(paths["qmodel"]), "--samples",
                   str(paths["samples"]), "--report", str(out))
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


@pytest.mark.parametrize("command", ["quantize", "eval"])
@pytest.mark.parametrize(
    "tamper, match",
    [
        (_set("sample_count", -5), "calibration key 'sample_count' must be >= 1, got -5"),
        (_set("sample_count", 0), "calibration key 'sample_count' must be >= 1, got 0"),
        (_set("aifs", True), "calibration file has unknown keys ['aifs']"),
        (_set("points", "llm.0.input", "text", [float("nan"), 1.0]),
         "calibration llm.0.input.text must be finite, got [nan, 1.0]"),
        (_set("points", "vision.0.input", "visual", [-1.0, 1e309]),
         "calibration vision.0.input.visual must be finite, got [-1.0, inf]"),
        (_set("points", "vision.0.input", "visual", [2.0, 1.0]),
         "calibration vision.0.input.visual has lo 2.0 > hi 1.0"),
        (_set("points", "llm.0.input", "audio", [0.0, 1.0]),
         "calibration point 'llm.0.input' holds ranges ['audio', 'text', 'visual']; "
         "it takes one or more of ['visual', 'text']"),
        (_set("points", "vision.0.input", "text", [0.0, 1.0]),
         "calibration point 'vision.0.input' holds ranges ['text', 'visual']; "
         "it takes one or more of ['visual']"),
    ],
)
def test_a_calibration_out_of_its_schema_is_refused_on_load(
    calibrated, capsys, tamper, match, command
):
    """A calibration, alone or inside a qmodel, whose sample count is below
    1, that holds a key of no schema-3 file, a non-finite or reversed
    range, or a range for a modality its point does not take, exits 2
    naming the field."""
    path = calibrated["calib" if command == "quantize" else "qmodel"]
    d = json.loads(path.read_text())
    tamper(d if command == "quantize" else d["calibration"])
    path.write_text(json.dumps(d))
    assert match in _refused(calibrated, capsys, command)


def test_a_qmodel_with_an_unknown_key_is_refused(calibrated, capsys):
    d = json.loads(calibrated["qmodel"].read_text())
    d["weights"] = {}
    calibrated["qmodel"].write_text(json.dumps(d))
    assert "quantized model file has unknown keys ['weights']" in _refused(
        calibrated, capsys, "eval"
    )


@pytest.mark.parametrize("command", ["quantize", "eval"])
def test_a_schema_2_file_is_refused_naming_schema_version(calibrated, capsys, command):
    """A schema-2 calibration stored grids with their bits and symmetry;
    it is refused by its version, alone or inside a qmodel, not by its
    keys."""
    path = calibrated["calib" if command == "quantize" else "qmodel"]
    d = json.loads(path.read_text())
    d["schema_version"] = 2
    calib = d if command == "quantize" else d["calibration"]
    del calib["points"]
    calib.update(schema_version=2, bits_a=8, symmetric=True, msq=[], vision_act=[])
    path.write_text(json.dumps(d))
    assert "schema_version=2, this version reads 3" in _refused(calibrated, capsys, command)


@pytest.mark.parametrize(
    "lengths, message",
    [
        ("16,x", "--lengths takes comma-separated ints, got 'x'"),
        ("16,0", "--lengths takes lengths >= 1, got '0'"),
        ("-3", "--lengths takes lengths >= 1, got '-3'"),
    ],
    ids=["not-an-int", "zero", "negative"],
)
def test_bench_lengths_that_are_not_ints_are_named(calibrated, capsys, lengths, message):
    out = calibrated["model"].parent / "bench.json"
    capsys.readouterr()
    code = run("bench", "--qmodel", str(calibrated["qmodel"]), "--lengths", lengths,
               "--report", str(out))
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_transcript() -> list:
    """(argv, printed lines) of each command of README's CLI walkthrough.
    A line README wraps, indented under the one it continues, is joined
    onto it with one space."""
    block = README.read_text().split("```\n$ mquant gen-model", 1)[1].split("```", 1)[0]
    commands = []
    for line in ("$ mquant gen-model" + block).splitlines():
        if line.startswith("$ mquant "):
            commands.append((shlex.split(line.removeprefix("$ mquant ")), []))
        elif line.startswith(" "):
            commands[-1][1][-1] += " " + line.strip()
        elif line:
            commands[-1][1].append(line)
    return commands


def test_the_readme_walkthrough_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    transcript = readme_transcript()
    assert [argv[0] for argv, _ in transcript] == [
        "gen-model", "gen-samples", "calibrate", "quantize", "eval", "bench"
    ]
    for argv, printed in transcript:
        assert run(*argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == printed, argv
