"""Binary tensor format and sample-file helpers.

Tensor container layout, little-endian throughout:

    bytes 0-3   magic "MQNT"
    bytes 4-7   format version (u32)
    bytes 8-15  rows (u64)
    bytes 16-23 cols (u64)
    then        rows*cols float64 payload, row-major

A sample batch file is a u64 sample count followed by one record per
sample: a tensor container, then exactly `rows` modality bytes, 0 for a
text token row and 1 for a visual token row.
"""

from __future__ import annotations

import base64
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .msq_aifs import check_tags
from .numerics import as_tensor, check_finite

MAGIC = b"MQNT"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQQ")


def tensor_to_bytes(a: np.ndarray) -> bytes:
    a = check_finite(as_tensor(a), "tensor payload")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, a.shape[0], a.shape[1])
    return header + a.astype("<f8").tobytes(order="C")


def tensor_from_bytes(raw) -> tuple[np.ndarray, int]:
    """Decode one tensor container at the start of raw (bytes or a
    memoryview), returning (a copy of the tensor, bytes consumed)."""
    if len(raw) < _HEADER.size:
        raise ValueError(f"tensor container truncated: {len(raw)} bytes")
    magic, version, rows, cols = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    need = _HEADER.size + rows * cols * 8
    if len(raw) < need:
        raise ValueError(f"tensor payload truncated: have {len(raw)} bytes, need {need}")
    data = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=_HEADER.size)
    a = np.ascontiguousarray(data.reshape(rows, cols).astype(np.float64))
    return check_finite(a, "tensor payload"), need


def tensor_to_b64(a: np.ndarray) -> str:
    """Tensor container as base64 text, for embedding in JSON files."""
    return base64.b64encode(tensor_to_bytes(a)).decode("ascii")


def tensor_from_b64(text: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"embedded tensor must be a base64 string, got {type(text).__name__}")
    raw = base64.b64decode(text.encode("ascii"))
    a, used = tensor_from_bytes(raw)
    if used != len(raw):
        raise ValueError("embedded tensor has trailing bytes")
    return a


def require(value, kind: type, what: str):
    """value, if it is a JSON object (kind dict) or list (kind list);
    otherwise a ValueError naming what."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {noun}, got {type(value).__name__}")
    return value


@contextmanager
def keys_required(what: str):
    """Report a key missing from a JSON artifact as a ValueError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{what} has no {exc.args[0]!r} entry") from None


def save_samples(path, samples) -> None:
    """Write a batch of (tensor, modality) samples in the batch layout."""
    chunks = [struct.pack("<Q", len(samples))]
    for i, (tensor, modality) in enumerate(samples):
        tensor = as_tensor(tensor)
        mod = check_tags(modality, tensor.shape[0], f"sample {i} modality")
        chunks.append(tensor_to_bytes(tensor) + bytes(mod.tolist()))
    Path(path).write_bytes(b"".join(chunks))


def load_samples(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read a batch of samples written by save_samples, parsing each
    record in place in the file's one buffer."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: sample batch truncated")
    (count,) = struct.unpack_from("<Q", raw, 0)
    view = memoryview(raw)
    offset = 8
    samples = []
    for i in range(count):
        try:
            tensor, used = tensor_from_bytes(view[offset:])
        except ValueError as exc:
            raise ValueError(f"{path}: sample {i}: {exc}") from None
        offset += used
        tail = raw[offset : offset + tensor.shape[0]]
        if len(tail) != tensor.shape[0]:
            raise ValueError(f"{path}: sample {i} modality bytes truncated")
        mod = check_tags(
            np.frombuffer(tail, dtype=np.uint8), len(tail), f"{path}: sample {i} modality"
        )
        offset += tensor.shape[0]
        samples.append((tensor, mod))
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes after samples")
    return samples
