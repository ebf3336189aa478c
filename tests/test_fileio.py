import base64
import binascii
import gc
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mquant import fileio
from mquant.model import ToyMllmConfig, build_toy_mllm
from mquant.pipeline import PipelineConfig, generate_synthetic_samples, mquant_quantize, qmodel_to_dict


def test_b64_roundtrip():
    a = np.array([[1.5, -2.25], [0.0, 1e300]])
    b = fileio.tensor_from_b64(fileio.tensor_to_b64(a))
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "a",
    [
        np.arange(12.0).reshape(3, 4),
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(24.0).reshape(4, 6)[::2, 1::2],
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.arange(12, dtype=">f8").reshape(3, 4),
        np.array([[-0.0, 1e-310, -1e300]]),
    ],
    ids=["c_order", "f_order", "strided", "float32", "big_endian", "edge_values"],
)
def test_tensor_bytes_are_the_header_and_the_row_major_little_endian_payload(a):
    """The container layout in the module docstring, for any input layout
    and dtype; base64 of it decodes back to the float64 tensor."""
    raw = fileio.tensor_to_bytes(a)
    want = b"MQNT" + bytes([1, 0, 0, 0]) + a.shape[0].to_bytes(8, "little")
    want += a.shape[1].to_bytes(8, "little") + np.asarray(a, "<f8").tobytes(order="C")
    assert isinstance(raw, bytes) and raw == want
    back = fileio.tensor_from_b64(fileio.tensor_to_b64(a))
    assert back.dtype == np.float64 and back.tobytes() == np.asarray(a, np.float64).tobytes()


def test_a_non_ascii_embedded_tensor_is_a_value_error():
    text = fileio.tensor_to_b64(np.ones((2, 2)))
    with pytest.raises(ValueError, match="ASCII"):
        fileio.tensor_from_b64("\u00e9" + text)


@pytest.mark.parametrize(
    "rows, tamper",
    [
        (1, lambda t: t[:8] + "!!!!" + t[8:]),
        (1, lambda t: t[:20] + "\n" + t[20:]),
        (1, lambda t: t + "AAAA"),
        (2, lambda t: t + "AAAA"),
        (3, lambda t: t + "="),
        (3, lambda t: t + "=="),
        (3, lambda t: t + "===="),
    ],
    ids=["non_alphabet", "line_break", "data_after_two_pads", "data_after_one_pad",
         "one_excess_pad", "two_excess_pads", "a_group_of_pads"],
)
def test_tensor_text_out_of_strict_base64_is_a_value_error(rows, tamper):
    """binascii's default decoder reads each tampered text as the tensor
    it was made from; the loader refuses it.  A 1-, 2- or 3-row tensor of
    two columns gives a text with 2, 1 or 0 padding characters."""
    a = np.arange(rows * 2.0).reshape(rows, 2)
    text = fileio.tensor_to_b64(a)
    assert len(text) - len(text.rstrip("=")) == {1: 2, 2: 1, 3: 0}[rows]
    bad = tamper(text)
    assert np.array_equal(fileio.tensor_from_bytes(binascii.a2b_base64(bad))[0], a)
    with pytest.raises(ValueError, match="^embedded tensor is not strict base64: "):
        fileio.tensor_from_b64(bad)


# Payload strings, biased to the characters json escapes; none holds the
# writer's slot, which it refuses (see the test after next).
JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters())
).filter(lambda s: fileio._SLOT not in s)
TENSOR_TEXT = st.binary(max_size=40).map(
    lambda raw: fileio.TensorText(base64.b64encode(raw), "ascii")
)
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT | TENSOR_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(payload=PAYLOADS)
def test_write_json_writes_the_bytes_json_dumps_gives(tmp_path_factory, payload):
    """Tensor texts in dicts and in lists, strings that need escaping,
    numbers, bools and None: the file is json.dumps(payload,
    sort_keys=True) plus a newline, byte for byte."""
    path = tmp_path_factory.mktemp("json") / "out.json"
    fileio.write_json(path, payload)
    assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode()


def test_a_written_qmodel_payload_leaves_no_tensor_text_alive(tmp_path):
    """With the cyclic collector off, a qmodel payload that was written
    and deleted is freed at once: none of its tensor texts is held by a
    reference cycle of the writer's (a recursive closure was one, and held
    the 2.3 MB of texts)."""
    pcfg = PipelineConfig()
    samples = generate_synthetic_samples(2, 8, seed=0, d_model=pcfg.model.d_model)
    qm = mquant_quantize(build_toy_mllm(ToyMllmConfig()), pcfg, samples=samples)
    path = tmp_path / "q.json"
    gc.disable()
    tracemalloc.start()
    try:
        fileio.write_json(path, qmodel_to_dict(qm))
        baseline = tracemalloc.get_traced_memory()[0]
        payload = qmodel_to_dict(qm)
        probe = payload["float_model"]["tensors"]["llm.0.wq.w"]
        assert type(probe) is fileio.TensorText
        total = sum(map(len, payload["float_model"]["tensors"].values()))
        assert total > 2_000_000
        fileio.write_json(path, payload)
        del payload
        assert sys.getrefcount(probe) == 2
        del probe
        assert tracemalloc.get_traced_memory()[0] - baseline < 64_000
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize(
    "bad, error",
    [(object(), TypeError), (fileio._SLOT, ValueError), ('"' + fileio._SLOT, ValueError)],
    ids=["not_json", "slot_string", "string_ending_in_the_slot"],
)
def test_a_payload_that_cannot_be_encoded_leaves_the_file_untouched(tmp_path, bad, error):
    """Encoding finishes before the file is opened: a payload json cannot
    encode, or one holding a string whose JSON text would read as a tensor
    slot, creates no file and leaves an existing one as it was."""
    payload = {"a": fileio.tensor_to_b64(np.ones((2, 2))), "b": [bad]}
    fresh, kept = tmp_path / "new.json", tmp_path / "old.json"
    kept.write_text("old\n")
    for path in (fresh, kept):
        with pytest.raises(error):
            fileio.write_json(path, payload)
    assert not fresh.exists() and kept.read_text() == "old\n"


def test_bad_magic_rejected():
    raw = bytearray(fileio.tensor_to_bytes(np.ones((2, 2))))
    raw[0:4] = b"XXXX"
    with pytest.raises(ValueError, match="magic"):
        fileio.tensor_from_bytes(bytes(raw))


def test_bad_version_rejected():
    raw = bytearray(fileio.tensor_to_bytes(np.ones((2, 2))))
    raw[4] = 99
    with pytest.raises(ValueError, match="version"):
        fileio.tensor_from_bytes(bytes(raw))


def test_truncated_payload_rejected():
    raw = fileio.tensor_to_bytes(np.ones((4, 4)))
    with pytest.raises(ValueError, match="truncated"):
        fileio.tensor_from_bytes(raw[:-8])


def test_trailing_bytes_rejected():
    raw = fileio.tensor_to_bytes(np.ones((2, 2))) + b"junk"
    with pytest.raises(ValueError, match="trailing"):
        fileio.tensor_from_b64(base64.b64encode(raw).decode("ascii"))


def test_nonfinite_tensor_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        fileio.tensor_to_bytes(np.array([[np.nan, 0.0]]))


def test_sample_modality_length_checked(tmp_path):
    with pytest.raises(ValueError, match="modality length"):
        fileio.save_samples(tmp_path / "x", [(np.ones((3, 2)), [0, 1])])


def test_sample_modality_values_checked(tmp_path):
    with pytest.raises(ValueError, match="0 .* or 1"):
        fileio.save_samples(tmp_path / "x", [(np.ones((2, 2)), [0, 2])])


@pytest.mark.parametrize("shape", [(0, 3), (4, 0)], ids=["no_rows", "no_columns"])
def test_an_empty_sample_is_refused_on_save_and_load_by_its_index(tmp_path, shape):
    """A 0-row sample used to round-trip and fail only in a forward, with
    an error naming neither file nor sample."""
    ok = (np.ones((2, 3)), [0, 1])
    empty = (np.zeros(shape), np.zeros(shape[0], dtype=np.int64))
    path = tmp_path / "b.mqs"
    want = f"sample 1 has shape {shape}; a sample needs at least one row and one column"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        fileio.save_samples(path, [ok, empty])
    assert not path.exists()
    # the same batch written record by record, as another writer might
    records = [fileio.tensor_to_bytes(t) + bytes(list(m)) for t, m in (ok, empty)]
    path.write_bytes((2).to_bytes(8, "little") + b"".join(records))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {want}')}$"):
        fileio.load_samples(path)


def test_samples_batch_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    batch = [
        (rng.normal(size=(4, 3)), np.array([0, 1, 1, 0])),
        (rng.normal(size=(2, 3)), np.array([1, 1])),
        (rng.normal(size=(5, 3)), np.array([0, 0, 0, 0, 0])),
    ]
    path = tmp_path / "b.mqs"
    fileio.save_samples(path, batch)
    loaded = fileio.load_samples(path)
    assert len(loaded) == 3
    for (t, m), (t2, m2) in zip(batch, loaded):
        assert np.array_equal(t, t2)
        assert np.array_equal(m, m2)


def test_samples_batch_truncation_detected(tmp_path):
    path = tmp_path / "b.mqs"
    fileio.save_samples(path, [(np.ones((3, 2)), [0, 1, 0])])
    raw = path.read_bytes()
    path.write_bytes(raw[:-2])
    with pytest.raises(ValueError):
        fileio.load_samples(path)


def test_samples_batch_trailing_bytes_detected(tmp_path):
    path = tmp_path / "b.mqs"
    fileio.save_samples(path, [(np.ones((3, 2)), [0, 1, 0])])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        fileio.load_samples(path)


def test_samples_batch_of_thousands_roundtrips(tmp_path):
    """Each record is parsed in place: a batch of 3000 one-row samples
    (which a per-record copy of the rest of the file made quadratic)
    round-trips exactly."""
    rng = np.random.default_rng(4)
    batch = [(rng.normal(size=(1, 8)), rng.integers(0, 2, size=1)) for _ in range(3000)]
    path = tmp_path / "many.mqs"
    fileio.save_samples(path, batch)
    loaded = fileio.load_samples(path)
    assert len(loaded) == len(batch)
    for (t, m), (t2, m2) in zip(batch, loaded):
        assert np.array_equal(t, t2) and np.array_equal(m, m2)
