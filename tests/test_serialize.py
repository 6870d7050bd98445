import json
import tracemalloc

import numpy as np
import pytest

from qchannel.channels import bit_flip, channels_equal, collective_rotation, dead_row
from qchannel.errors import SchemaError
from qchannel.linalg import frob
from qchannel.qcore import embed_single, gate
from qchannel.qec import builtin_code
from qchannel.serialize import (
    channel_from_json,
    channel_to_json,
    code_from_json,
    code_to_json,
    dumps,
    matrix_from_json,
    matrix_to_json,
    oracle_from_json,
    oracle_to_json,
    state_from_json,
    state_to_json,
)


def test_matrix_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    again = matrix_from_json(json.loads(dumps(matrix_to_json(m))))
    assert np.array_equal(m, again)


def test_serialize_parse_fixed_point():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    text = dumps(matrix_to_json(m))
    text2 = dumps(matrix_to_json(matrix_from_json(json.loads(text))))
    assert text == text2


def test_state_roundtrip():
    psi = np.array([0.6, 0.8j])
    assert np.array_equal(state_from_json(state_to_json(psi)), psi)


def test_channel_roundtrip_and_cp_only_flag():
    ch = bit_flip(0.3)
    doc = channel_to_json(ch)
    assert "cp_only" not in doc
    assert channels_equal(channel_from_json(doc), ch)
    from qchannel.channels import KrausChannel

    lossy = KrausChannel([np.array([[1, 0], [0, 0]], dtype=complex)])
    assert channel_to_json(lossy)["cp_only"] is True


def test_channel_builtin_spec():
    ch = channel_from_json({"builtin": "bit_flip", "params": {"p": 0.3}})
    assert channels_equal(ch, bit_flip(0.3))
    ch = channel_from_json({"builtin": "dead_row", "params": {"d": 3}})
    assert channels_equal(ch, dead_row(3))


def test_code_roundtrip():
    code = builtin_code("repetition3")
    again = code_from_json(code_to_json(code))
    assert frob(again.projection - code.projection) <= 1e-12
    direct = code_from_json({"builtin": "shor9"})
    assert direct.ambient_dim == 512


def test_oracle_roundtrip():
    doc = {"m": 2, "k": 1, "table": [0, 1, 1, 0]}
    assert oracle_to_json(oracle_from_json(doc)) == doc


@pytest.mark.parametrize(
    "bad",
    [
        {"rows": 2, "cols": 2, "data": [[0.0, 0.0]] * 3},
        {"rows": 2.5, "cols": 2, "data": [[0.0, 0.0]] * 5},
        {"rows": 2, "cols": 2, "data": [[float("nan"), 0.0]] * 4},
        {"rows": 2, "cols": 2, "data": [0.0] * 4},
        [],
    ],
)
def test_bad_matrix_documents(bad):
    with pytest.raises(SchemaError):
        matrix_from_json(bad)


def test_bad_channel_documents():
    with pytest.raises(SchemaError):
        channel_from_json({"dim": 2, "kraus": []})
    with pytest.raises(SchemaError):
        channel_from_json({"builtin": "not_a_channel"})
    with pytest.raises(SchemaError):
        channel_from_json({"dim": 3, "kraus": [matrix_to_json(np.eye(2))]})


@pytest.mark.parametrize(
    ("text", "decode", "message"),
    [
        ('{"rows":1,"cols":1,"data":[[1%s,0]]}' % ("0" * 400), matrix_from_json, "data[0] is not finite"),
        ('{"rows":1,"cols":2,"data":[[0,0],[0,-1%s]]}' % ("0" * 400), matrix_from_json, "data[1] is not finite"),
        ('{"dim":2,"amplitudes":[[1,0],[1%s,0.5]]}' % ("0" * 400), state_from_json, "amplitudes[1] is not finite"),
    ],
    ids=["matrix-re", "matrix-im-negative", "state"],
)
def test_oversized_integer_is_a_schema_error(text, decode, message):
    with pytest.raises(SchemaError) as info:
        decode(json.loads(text))
    assert str(info.value) == message


def test_documents_round_trip_without_text():
    ch = collective_rotation(3, (0.3, -0.0, 1.1))
    again = channel_from_json(channel_to_json(ch))
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(again.operators, ch.operators))
    code = builtin_code("shor9")
    assert np.array_equal(code_from_json(code_to_json(code)).isometry, code.isometry)
    doc = matrix_to_json(np.eye(2))
    decoded = matrix_from_json(doc)
    decoded[0, 0] = 5
    assert doc["data"][0] == 1


@pytest.mark.parametrize(
    ("leaf", "message"),
    [
        (np.zeros((2, 2), dtype=complex), "data must be a list"),
        (np.zeros(4), "data must be a list"),
        (np.zeros(3, dtype=complex), "data length 3 != rows*cols 4"),
        (np.array([0, 1, complex(1, np.nan), np.inf]), "data[2] is not finite"),
    ],
)
def test_bad_array_leaves(leaf, message):
    with pytest.raises(SchemaError) as info:
        matrix_from_json({"rows": 2, "cols": 2, "data": leaf})
    assert str(info.value) == message


def test_bad_state_array_leaf():
    with pytest.raises(SchemaError) as info:
        state_from_json({"dim": 2, "amplitudes": np.array([1, complex(0, -np.inf)])})
    assert str(info.value) == "amplitudes[1] is not finite"


@pytest.mark.parametrize(
    "report",
    [
        float("nan"),
        {"x": [1.0, float("inf")]},
        {"data": np.array([0, complex(np.nan, 0)])},
        [{"data": np.array([1j, complex(0, -np.inf)])}],
        np.array([complex(np.inf, np.inf)] * 3),
    ],
    ids=["nan", "nested-inf", "leaf-nan", "leaf-inf", "leaf-all-inf"],
)
def test_dumps_refuses_non_finite(report):
    with pytest.raises(ValueError):
        dumps(report)


def test_dumps_peak_memory_is_a_few_times_the_output():
    matrices = [embed_single(p, 1, 9) for p in (np.eye(2), gate("X"), gate("Y"), gate("Z"))]
    tracemalloc.start()
    try:
        text = dumps([matrix_to_json(m) for m in matrices])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)
