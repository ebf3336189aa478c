"""Binary tensor format, sample-file helpers and the JSON artifact writer.

Tensor container layout, little-endian throughout:

    bytes 0-3   magic "MQNT"
    bytes 4-7   format version (u32)
    bytes 8-15  rows (u64)
    bytes 16-23 cols (u64)
    then        rows*cols float64 payload, row-major

A sample batch file is a u64 sample count followed by one record per
sample: a tensor container, then exactly `rows` modality bytes, 0 for a
text token row and 1 for a visual token row.  A sample holds at least one
row and one column: an empty one is refused on save and on load, by its
index.

JSON artifacts embed each tensor container as base64 text, a TensorText,
and write_json writes them: the file holds exactly the bytes of
json.dumps(payload, sort_keys=True) plus a newline, but each tensor's text
goes from the payload to the file as it is.  Only the rest of the payload
is JSON-encoded, and all of it before the file is opened.  On load a
tensor's text must be strict base64: a character outside the alphabet, a
line break or data after the padding is an error.
"""

from __future__ import annotations

import base64
import binascii
import json
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
    # One copy: the header joins the array's own buffer, which is already
    # little-endian float64 in row-major order on a little-endian machine.
    return header + np.ascontiguousarray(a, "<f8").data


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


class TensorText(str):
    """Base64 text of a tensor container.  Every character is from the
    base64 alphabet, so JSON holds it unescaped and write_json writes it
    to the file as it is."""

    __slots__ = ()


def tensor_to_b64(a: np.ndarray) -> TensorText:
    """Tensor container as base64 text, for embedding in JSON files."""
    return TensorText(base64.b64encode(tensor_to_bytes(a)), "ascii")


def tensor_from_b64(text: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"embedded tensor must be a base64 string, got {type(text).__name__}")
    # binascii's default decoder skips characters outside the alphabet and
    # ignores data after the padding.  validate=True refuses both, but lets
    # padding follow a whole group of four, which the group check refuses.
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"embedded tensor is not strict base64: {exc}") from None
    if len(text) % 4 or text.find("=", 0, len(text) - 2) != -1:
        raise ValueError(
            "embedded tensor is not strict base64: it must be whole groups of "
            "four characters with its padding at the end"
        )
    a, used = tensor_from_bytes(raw)
    if used != len(raw):
        raise ValueError("embedded tensor has trailing bytes")
    return a


# The stand-in for each TensorText in the payload write_json encodes.  Its
# JSON text, quotes included, is what the encoded skeleton is split on;
# a payload string that encodes to it as well makes a slot too many, which
# write_json refuses.
_SLOT = "\x00tensor text\x00"
_SLOT_JSON = json.dumps(_SLOT)


def _skeleton(node, texts: list):
    """node with each TensorText in it swapped for _SLOT and each dict's
    keys in sorted order, as json.dumps(..., sort_keys=True) writes them;
    the texts are appended to texts in that order.  A module-level
    function: a recursive closure would be a reference cycle, keeping
    every text alive until the cyclic collector runs."""
    if isinstance(node, TensorText):
        texts.append(node)
        return _SLOT
    if isinstance(node, dict):
        return {key: _skeleton(value, texts) for key, value in sorted(node.items())}
    if isinstance(node, (list, tuple)):
        return [_skeleton(value, texts) for value in node]
    return node


def write_json(path, payload) -> None:
    """Write the bytes of json.dumps(payload, sort_keys=True) + "\n" to
    path.  The payload is encoded with each TensorText swapped for a slot,
    and the tensor texts are written between the skeleton's pieces, so no
    text is escaped or copied into one whole-file string.  A payload that
    cannot be encoded raises before path is opened."""
    texts = []
    # The skeleton is built in sorted key order, so its slots come in the
    # order of texts; sort_keys here would be a second sort.
    pieces = json.dumps(_skeleton(payload, texts)).split(_SLOT_JSON)
    if len(pieces) != len(texts) + 1:
        raise ValueError(
            f"{path}: the encoded payload holds {len(pieces) - 1} tensor slots "
            f"for {len(texts)} tensor texts"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(pieces[0])
        for text, piece in zip(texts, pieces[1:]):
            fh.write('"')
            fh.write(text)
            fh.write('"')
            fh.write(piece)
        fh.write("\n")


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


def _non_empty(tensor: np.ndarray, what: str) -> np.ndarray:
    if tensor.size == 0:
        raise ValueError(
            f"{what} has shape {tensor.shape}; a sample needs at least one row and one column"
        )
    return tensor


def save_samples(path, samples) -> None:
    """Write a batch of (tensor, modality) samples in the batch layout."""
    chunks = [struct.pack("<Q", len(samples))]
    for i, (tensor, modality) in enumerate(samples):
        tensor = _non_empty(as_tensor(tensor), f"sample {i}")
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
        _non_empty(tensor, f"{path}: sample {i}")
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
