import numpy as np
import pytest

from fedcast.nn.models import ModelSpec, init_model, layout_for
from fedcast.nn.params import (
    Layout,
    ParameterVector,
    SerializationError,
    TensorSpec,
    deserialize_params,
    payload_nbytes,
    serialize_params,
)
from helpers import zeros_like


def toy_layout():
    return Layout(
        (TensorSpec("a.w", (2, 3), fan_in=2), TensorSpec("a.b", (3,))), tag="toy"
    )


def test_layout_offsets_contiguous():
    lay = toy_layout()
    assert lay.offsets == {"a.w": (0, 6, (2, 3)), "a.b": (6, 9, (3,))}
    assert lay.size == 9


def test_layout_rejects_duplicate_names():
    lay = Layout((TensorSpec("x", (2,)), TensorSpec("x", (3,))))
    with pytest.raises(ValueError):
        _ = lay.offsets


def test_parameter_vector_validation():
    lay = toy_layout()
    with pytest.raises(ValueError):
        ParameterVector(np.zeros(8), lay)  # wrong length
    with pytest.raises(ValueError):
        ParameterVector(np.zeros(9, dtype=np.float32), lay)
    with pytest.raises(ValueError):
        ParameterVector(np.zeros((3, 3)), lay)


def test_view_is_shared_and_copy_is_not():
    pv = zeros_like(toy_layout())
    pv.view("a.w")[0, 0] = 5.0
    assert pv.values[0] == 5.0
    clone = pv.copy()
    clone.view("a.w")[0, 0] = -1.0
    assert pv.values[0] == 5.0


def test_payload_nbytes_mlp():
    lay = layout_for(ModelSpec(architecture="mlp"))
    assert payload_nbytes(lay) == 8 * 69_893 == 559_144


def test_round_trip_bit_exact():
    pv = init_model(ModelSpec(architecture="gru"), 11)
    back = deserialize_params(serialize_params(pv), pv.layout)
    assert np.array_equal(back.values, pv.values)
    assert back.values.dtype == np.float64


def test_round_trip_toy_layout():
    lay = toy_layout()
    pv = ParameterVector(np.arange(9, dtype=np.float64), lay)
    back = deserialize_params(serialize_params(pv), lay)
    assert np.array_equal(back.values, pv.values)


def test_empty_layout_header_only():
    lay = Layout(())
    pv = zeros_like(lay)
    buf = serialize_params(pv)
    assert len(buf) > 0  # magic + header survive
    back = deserialize_params(buf, lay)
    assert back.size == 0


def test_deserialize_rejects_bad_magic():
    pv = zeros_like(toy_layout())
    buf = bytearray(serialize_params(pv))
    buf[0:4] = b"XXXX"
    with pytest.raises(SerializationError):
        deserialize_params(bytes(buf), pv.layout)


def test_deserialize_rejects_truncation():
    pv = zeros_like(toy_layout())
    buf = serialize_params(pv)
    with pytest.raises(SerializationError):
        deserialize_params(buf[:3], pv.layout)
    with pytest.raises(SerializationError):
        deserialize_params(buf[:-8], pv.layout)


def test_deserialize_rejects_wrong_layout():
    pv = init_model(ModelSpec(architecture="mlp"), 0)
    buf = serialize_params(pv)
    other = layout_for(ModelSpec(architecture="mlp", hidden_sizes=(8,)))
    with pytest.raises(SerializationError):
        deserialize_params(buf, other)


def test_deserialize_rejects_architecture_tag_mismatch():
    # same tensor table, different tag: only the tag check can catch it
    a = Layout((TensorSpec("w", (2,)),), tag="mlp")
    b = Layout((TensorSpec("w", (2,)),), tag="rnn")
    buf = serialize_params(zeros_like(a))
    with pytest.raises(SerializationError):
        deserialize_params(buf, b)


def test_deserialize_rejects_garbage_header():
    lay = toy_layout()
    head = serialize_params(zeros_like(lay))[:8]
    garbage = head + b"\xff" * 64
    with pytest.raises(SerializationError):
        deserialize_params(garbage, lay)
