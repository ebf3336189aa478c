import base64
import re

import numpy as np
import pytest

from mquant import fileio


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
