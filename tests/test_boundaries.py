"""Inputs are checked once, where they enter: a forward's sample, tags and
lengths in embed_tokens, a model file's tensors in model_from_dict, and
calibration and qmodel files on load.  Each bad input fails there with a
ValueError that names the field, and the CLI exits 2 writing nothing.  The
forward's kernels check nothing, so a value that overflows inside a
forward is caught by its output check (or, on the quantized path, by the
check of the next activation grid's input)."""

import base64
import copy
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mquant import fileio
from mquant.cli import main
from mquant.model import (
    ToyMllmConfig,
    build_toy_mllm,
    iter_linears,
    model_forward,
    model_from_dict,
    model_to_dict,
)
from mquant.msq_aifs import ModalityLayout
from mquant.pipeline import (
    PipelineConfig,
    calibrate_pipeline,
    evaluate,
    generate_synthetic_samples,
    mquant_quantize,
    qmodel_from_dict,
    qmodel_to_dict,
)

SMALL = ToyMllmConfig(d_model=16, n_heads=2, vision_blocks=1, llm_blocks=2, mlp_ratio=2)
SAMPLES = generate_synthetic_samples(4, 12, seed=3, d_model=16)


@pytest.fixture(scope="module")
def qm():
    pcfg = PipelineConfig(model=SMALL)
    return mquant_quantize(build_toy_mllm(SMALL), pcfg, samples=SAMPLES)


def raw_b64(a: np.ndarray) -> str:
    """A tensor container of a as base64, written without the writer's
    finiteness check, as a damaged or hand-made file would hold it."""
    header = fileio._HEADER.pack(fileio.MAGIC, fileio.FORMAT_VERSION, *a.shape)
    return base64.b64encode(header + a.astype("<f8").tobytes()).decode("ascii")


def with_entry(samples, i, row, value):
    """samples with one entry of sample i's row set to value."""
    out = [(rows.copy(), layout) for rows, layout in samples]
    out[i][0][row, 3] = value
    return out


# ===== forward entry: samples =====


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_sample_row_is_named_at_the_forward_entry(qm, bad):
    rows, layout = with_entry(SAMPLES, 0, 7, bad)[0]
    match = "sample row 7 contains non-finite entries"
    with pytest.raises(ValueError, match=match):
        model_forward(qm.float_model, rows, layout.modality)
    for dynamic in (False, True):
        with pytest.raises(ValueError, match=match):
            qm.forward(rows, layout.modality, dynamic=dynamic)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_sample_row_is_named_by_sample_in_a_batch(qm, bad):
    samples = with_entry(SAMPLES, 2, 5, bad)
    match = "sample 2 row 5 contains non-finite entries"
    for dynamic in (False, True):
        with pytest.raises(ValueError, match=match):
            evaluate(qm, samples, dynamic=dynamic)
    with pytest.raises(ValueError, match=match):
        calibrate_pipeline(build_toy_mllm(SMALL), samples)


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.zeros((12, 32)), "sample 2: sample width 32 != model d_model 16"),
        (np.zeros(12), "sample 2: expected a 2-D tensor, got ndim=1"),
    ],
    ids=["wide", "1-D"],
)
def test_a_malformed_sample_is_named_by_its_index_in_a_batch(bad, match, qm):
    samples = list(SAMPLES)
    samples[2] = (bad, samples[2][1])
    for dynamic in (False, True):
        with pytest.raises(ValueError, match=f"^{match}$"):
            evaluate(qm, samples, dynamic=dynamic)
    with pytest.raises(ValueError, match=f"^{match}$"):
        calibrate_pipeline(build_toy_mllm(SMALL), samples)


@pytest.mark.parametrize("tag", [2, -1, 0.7])
def test_a_tag_other_than_0_or_1_is_named_by_row(qm, tmp_path, tag):
    """A tag of 0.7 was truncated to 0, and 2 or -1 embedded the row as
    zeros; now each fails wherever tags come in."""
    rows, layout = SAMPLES[0]
    tags = layout.modality.astype(np.float64)
    tags[4] = tag
    match = f"tag at row 4 is {float(tag)}"
    with pytest.raises(ValueError, match=match):
        model_forward(qm.float_model, rows, tags)
    with pytest.raises(ValueError, match=match):
        qm.forward(rows, tags)
    with pytest.raises(ValueError, match=f"layout {match}"):
        ModalityLayout(tags)
    with pytest.raises(ValueError, match=f"sample 0 modality {match}"):
        fileio.save_samples(tmp_path / "s.mqs", [(rows, tags)])
    assert not (tmp_path / "s.mqs").exists()


def test_integer_valued_tags_of_any_dtype_are_taken(qm):
    rows, layout = SAMPLES[1]
    want = model_forward(qm.float_model, rows, layout.modality)
    for tags in (layout.modality.astype(np.float64), layout.modality.astype(bool)):
        assert np.array_equal(model_forward(qm.float_model, rows, tags), want)


# ===== model load =====


@pytest.fixture(scope="module")
def model_file():
    return model_to_dict(build_toy_mllm(ToyMllmConfig()))


def entry(d, key):
    """(object, field) that holds a model-file tensor: the norms section
    holds each norm's alpha and beta, the tensors section the rest."""
    if key.endswith((".alpha", ".beta")):
        norm, field = key.rsplit(".", 1)
        return d["norms"][norm], field
    return d["tensors"], key


def tampered(d, key, value):
    """A copy of model file d with tensor key replaced by value."""
    d = json.loads(json.dumps(d))
    holder, field = entry(d, key)
    holder[field] = value
    return d


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("key", ["llm.1.w_up.w", "head.b", "llm.0.mlp_norm.alpha"])
def test_a_non_finite_model_tensor_is_named_on_load(model_file, key, bad):
    holder, field = entry(model_file, key)
    a = fileio.tensor_from_b64(holder[field])
    a[0, 3] = bad
    with pytest.raises(
        ValueError, match=f"model file tensor {key}: tensor payload row 0 contains non-finite"
    ):
        model_from_dict(tampered(model_file, key, raw_b64(a)))


@pytest.mark.parametrize(
    "key, shape, want",
    [
        ("llm.0.wq.w", (64, 32), (64, 64)),
        ("vision.1.w_down.w", (128, 64), (256, 64)),
        ("projector.b", (1, 32), (1, 64)),
        ("llm.0.attn_norm.alpha", (1, 32), (1, 64)),
        ("vision_post_norm.beta", (1, 32), (1, 64)),
    ],
)
def test_a_tensor_of_the_wrong_shape_is_named_on_load(model_file, key, shape, want):
    """These loaded, then failed deep in the first forward with an error
    that named no tensor (or, for a bias, broadcast silently)."""
    bad = fileio.tensor_to_b64(np.ones(shape))
    with pytest.raises(
        ValueError, match=rf"model file tensor {key} has shape \({shape[0]}, {shape[1]}\), "
        rf"the config needs \({want[0]}, {want[1]}\)"
    ):
        model_from_dict(tampered(model_file, key, bad))


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("eps", 0.0, "eps must be > 0, got 0.0"),
        ("eps", -1e-6, "eps must be > 0, got -1e-06"),
        ("kind", "batch", "unknown norm kind 'batch'"),
    ],
)
def test_a_bad_norm_eps_or_kind_is_named_on_load(model_file, field, value, error):
    """These errors named no norm; now they name it as tensor errors do."""
    d = json.loads(json.dumps(model_file))
    d["norms"]["llm.0.attn_norm"][field] = value
    with pytest.raises(ValueError, match=f"^model file norm llm.0.attn_norm: {error}$"):
        model_from_dict(d)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_float_model_tensor_in_a_qmodel_is_named_on_load(qm, bad):
    d = qmodel_to_dict(qm)
    a = fileio.tensor_from_b64(d["float_model"]["tensors"]["llm.1.wv.w"])
    a[2, 5] = bad
    d["float_model"]["tensors"]["llm.1.wv.w"] = raw_b64(a)
    with pytest.raises(ValueError, match="model file tensor llm.1.wv.w: .* row 2 .*non-finite"):
        qmodel_from_dict(d)


# ===== the CLI writes nothing =====


@pytest.fixture
def desk(tmp_path):
    model, samples, calib = tmp_path / "m.json", tmp_path / "s.mqs", tmp_path / "c.json"
    assert main(["gen-model", "--out", str(model)]) == 0
    assert main(["gen-samples", "--out", str(samples), "--count", "2", "--length", "8"]) == 0
    assert main(["calibrate", "--model", str(model), "--samples", str(samples),
                 "--out", str(calib)]) == 0
    return tmp_path, model, samples, calib


def nan_tensor(text):
    a = fileio.tensor_from_b64(text)
    a[0, 0] = np.nan
    return raw_b64(a)


@pytest.mark.parametrize("case", ["nan", "shape", "norm"])
def test_a_bad_model_file_exits_2_before_any_artifact(desk, capsys, case):
    tmp, model, samples, calib = desk
    d = json.loads(model.read_text())
    if case == "nan":
        d["tensors"]["llm.1.w_up.w"] = nan_tensor(d["tensors"]["llm.1.w_up.w"])
        match = "model file tensor llm.1.w_up.w: tensor payload row 0 contains non-finite"
    elif case == "shape":
        d["tensors"]["llm.0.wq.w"] = fileio.tensor_to_b64(np.ones((64, 32)))
        match = "model file tensor llm.0.wq.w has shape (64, 32)"
    else:
        d["norms"]["llm.1.mlp_norm"]["alpha"] = fileio.tensor_to_b64(np.ones((1, 32)))
        d["norms"]["llm.1.mlp_norm"]["beta"] = fileio.tensor_to_b64(np.zeros((1, 32)))
        match = "model file tensor llm.1.mlp_norm.alpha has shape (1, 32)"
    model.write_text(json.dumps(d))
    capsys.readouterr()
    out = tmp / "q.json"
    assert main(["quantize", "--model", str(model), "--samples", str(samples),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert not out.exists()


def test_a_bad_qmodel_float_model_exits_2_before_any_report(desk, capsys):
    tmp, model, samples, calib = desk
    qmodel, report = tmp / "q.json", tmp / "r.json"
    assert main(["quantize", "--model", str(model), "--calib", str(calib),
                 "--out", str(qmodel)]) == 0
    d = json.loads(qmodel.read_text())
    tensors = d["float_model"]["tensors"]
    tensors["vision.0.wo.b"] = nan_tensor(tensors["vision.0.wo.b"])
    qmodel.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["eval", "--qmodel", str(qmodel), "--samples", str(samples),
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model file tensor vision.0.wo.b: " in err
    assert not report.exists()


def test_a_non_finite_sample_file_exits_2_naming_the_sample(desk, capsys):
    tmp, model, samples, calib = desk
    batch = fileio.load_samples(samples)
    rows, tags = batch[1]
    rows[6, 2] = np.inf
    raw = bytearray(samples.read_bytes())
    header = fileio._HEADER.pack(fileio.MAGIC, fileio.FORMAT_VERSION, *rows.shape)
    at = raw.index(header, raw.index(header) + 1)
    raw[at + len(header) : at + len(header) + rows.nbytes] = rows.astype("<f8").tobytes()
    samples.write_bytes(bytes(raw))
    capsys.readouterr()
    out = tmp / "c2.json"
    assert main(["calibrate", "--model", str(model), "--samples", str(samples),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{samples}: sample 1: tensor payload row 6 contains non-finite" in err
    assert not out.exists()


# ===== overflow inside a forward =====


def test_an_overflowing_forward_is_still_caught(qm):
    """One weight of a finite model, the first LLM block's attention-norm
    gain, scaled by 1e160 makes q.k^T overflow.  No kernel checks its
    result, yet both forwards and calibration raise a non-finite
    ValueError, and no invalid-value warning escapes on the way (the
    overflow warning is the caller's to silence, as with any numpy call)."""
    huge = copy.deepcopy(qm.float_model)
    huge.llm_blocks[0].attn_norm.params.alpha *= 1e160
    hot = copy.deepcopy(qm.model)
    hot.llm_blocks[0].attn_norm.params.alpha *= 1e160
    qm_hot = replace(qm, model=hot)
    rows, layout = SAMPLES[0]
    calls = [
        lambda: model_forward(huge, rows, layout.modality),
        lambda: qm_hot.forward(rows, layout.modality),
        lambda: qm_hot.forward(rows, layout.modality, dynamic=True),
        lambda: calibrate_pipeline(huge, SAMPLES),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
                call()


def scaled(model, name: str):
    """A copy of model with linear name's weight scaled by 1e160."""
    model = copy.deepcopy(model)
    dict(iter_linears(model))[name].w *= 1e160
    return model


@pytest.mark.parametrize("name", ["llm.0.wv", "llm.1.w_down", "text_embed"])
def test_a_norm_row_whose_square_sum_overflows_is_caught(qm, name):
    """Scaled by 1e160, each of these weights gives a residual row of
    |x| > 1e154, whose squares sum to inf in the next RMS norm.  That row
    used to normalize to zeros, and the forward returned a finite output;
    now it turns NaN, and the output check (or, on the quantized path, the
    next grid's input check) raises.  On the static quantized path a huge
    text_embed row meets llm.0's static grid before any norm and is clipped
    there, as static grids clip any outlier, so that path stays finite."""
    rows, layout = SAMPLES[0]
    hot = replace(qm, model=scaled(qm.model, name))
    calls = [
        lambda: model_forward(scaled(qm.float_model, name), rows, layout.modality),
        lambda: hot.forward(rows, layout.modality, dynamic=True),
        lambda: calibrate_pipeline(scaled(qm.float_model, name), SAMPLES),
    ]
    if name == "text_embed":
        with np.errstate(over="ignore"):
            assert np.isfinite(hot.forward(rows, layout.modality)).all()
    else:
        calls.append(lambda: hot.forward(rows, layout.modality))
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
                call()
