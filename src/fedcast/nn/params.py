"""Flat parameter vectors with a canonical named layout.

All model weights live in one float64 vector; a Layout names contiguous
regions and their shapes. The layout is a pure function of the model
configuration, so two parties that agree on the model agree on every
offset. Serialization
is a self-describing container: magic, JSON header with the tensor table,
then the raw little-endian float64 payload. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAGIC = b"FCPV"
_HEAD = struct.Struct("<4sI")


class SerializationError(ValueError):
    """Malformed or mismatched serialized parameter payload."""


@dataclass(frozen=True)
class TensorSpec:
    """One named region: shape plus the fan-in used for init scaling.

    fan_in None marks zero-initialized tensors (biases).
    """

    name: str
    shape: tuple[int, ...]
    fan_in: int | None = None

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1


@dataclass(frozen=True)
class Layout:
    """Named tensor regions in order, tagged with the architecture name."""

    tensors: tuple[TensorSpec, ...]
    tag: str = ""

    @cached_property
    def offsets(self) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        """name -> (start, end, shape) of each tensor in the flat vector."""
        table: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        pos = 0
        for spec in self.tensors:
            if spec.name in table:
                raise ValueError(f"duplicate tensor name {spec.name!r}")
            table[spec.name] = (pos, pos + spec.size, spec.shape)
            pos += spec.size
        return table

    @cached_property
    def size(self) -> int:
        return sum(spec.size for spec in self.tensors)


@dataclass(frozen=True)
class ParameterVector:
    """One model's weights as a flat float64 array plus its layout."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self) -> None:
        if self.values.dtype != np.float64 or self.values.ndim != 1:
            raise ValueError("values must be a 1-D float64 array")
        if len(self.values) != self.layout.size:
            raise ValueError(
                f"layout expects {self.layout.size} values, got {len(self.values)}"
            )

    def view(self, name: str) -> np.ndarray:
        """Shaped view into the flat vector (no copy)."""
        lo, hi, shape = self.layout.offsets[name]
        return self.values[lo:hi].reshape(shape)

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.layout)

    @property
    def size(self) -> int:
        return len(self.values)


def payload_nbytes(layout: Layout) -> int:
    """Bytes of the raw weight payload (8 per float64 parameter)."""
    return 8 * layout.size


def serialize_params(params: ParameterVector) -> bytes:
    """magic | u32 header length | JSON tensor table | little-endian floats."""
    header = json.dumps(
        {
            "format": 1,
            "dtype": "<f8",
            "tag": params.layout.tag,
            "tensors": [[t.name, list(t.shape)] for t in params.layout.tensors],
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = np.ascontiguousarray(params.values, dtype="<f8").tobytes()
    return _HEAD.pack(MAGIC, len(header)) + header + payload


def deserialize_params(buf: bytes, layout: Layout) -> ParameterVector:
    """Inverse of serialize_params; validates magic, table, and payload size."""
    if len(buf) < _HEAD.size:
        raise SerializationError("buffer shorter than the fixed header")
    magic, header_len = _HEAD.unpack_from(buf)
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    header_end = _HEAD.size + header_len
    if len(buf) < header_end:
        raise SerializationError("truncated header")
    try:
        header = json.loads(buf[_HEAD.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"unreadable header: {exc}") from exc
    expected = [[t.name, list(t.shape)] for t in layout.tensors]
    if header.get("dtype") != "<f8" or header.get("tensors") != expected:
        raise SerializationError("layout in buffer does not match expected layout")
    if header.get("tag", "") != layout.tag:
        raise SerializationError(
            f"architecture tag {header.get('tag')!r} does not match {layout.tag!r}"
        )
    payload = buf[header_end:]
    if len(payload) != payload_nbytes(layout):
        raise SerializationError(
            f"payload is {len(payload)} bytes, expected {payload_nbytes(layout)}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=True)
    return ParameterVector(values, layout)
