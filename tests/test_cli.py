import gc
import json

import numpy as np
import pytest

from qchannel.cli import main
from qchannel.qcore import embed_single, gate
from qchannel.serialize import matrix_from_json, matrix_to_json


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def xflips_file(tmp_path):
    errs = [np.eye(8)] + [embed_single(gate("X"), k, 3) for k in (1, 2, 3)]
    return write(tmp_path / "xflips.json", [matrix_to_json(e) for e in errs])


def test_correctable_repetition(tmp_path, capsys):
    code, out, _ = run(capsys, ["correctable", "--code", "repetition3", "--errors", xflips_file(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert report["verb"] == "correctable"
    assert report["paper_ref"]
    assert report["correctable"] is True
    lam = matrix_from_json(report["lambda"])
    assert np.allclose(lam, np.eye(4))


def test_noiseless_zz(capsys):
    code, out, _ = run(capsys, ["noiseless", "--channel", "builtin:zz_dephasing?p=0.25"])
    assert code == 0
    report = json.loads(out)
    assert report["blocks"] == [
        {"m": 1, "n": 2, "decoherence_free": True},
        {"m": 1, "n": 2, "decoherence_free": True},
    ]


def test_deutsch_constant(tmp_path, capsys):
    oracle = write(tmp_path / "const0.json", {"m": 1, "k": 1, "table": [0, 0]})
    code, out, _ = run(capsys, ["deutsch", "--oracle", oracle])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "constant"
    assert report["probability"] == pytest.approx(1, abs=1e-10)


def test_verify_recovery_pipeline(tmp_path, capsys):
    errs = xflips_file(tmp_path)
    ops = [np.sqrt(0.85) * np.eye(8)] + [
        np.sqrt(0.05) * embed_single(gate("X"), k, 3) for k in (1, 2, 3)
    ]
    channel = write(tmp_path / "chan.json", {"dim": 8, "kraus": [matrix_to_json(e) for e in ops]})
    code, out, _ = run(
        capsys,
        ["verify-recovery", "--channel", channel, "--code", "builtin:repetition3", "--errors", errs],
    )
    assert code == 0
    report = json.loads(out)
    assert report["success"] is True
    assert report["max_deviation"] <= 1e-9


def test_structure_deterministic_output(capsys):
    argv = ["structure", "--channel", "builtin:collective_rotation?n=3", "--seed", "0"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert sorted((b["m"], b["n"]) for b in report["blocks"]) == [(2, 2), (4, 1)]
    assert report["dim"] == 5


def test_classify_builtin_query_matches_file(tmp_path, capsys):
    _, out1, _ = run(capsys, ["classify", "--channel", "builtin:bit_flip?p=0.3"])
    spec = write(tmp_path / "bf.json", {"builtin": "bit_flip", "params": {"p": 0.3}})
    _, out2, _ = run(capsys, ["classify", "--channel", spec])
    assert out1 == out2
    assert json.loads(out1) == {
        "verb": "classify",
        "paper_ref": "choi_positivity_criterion",
        "completely_positive": True,
        "trace_preserving": True,
        "unital": True,
    }


def test_adder_report(capsys):
    code, out, _ = run(capsys, ["adder", "--bits", "1"])
    assert code == 0
    u = matrix_from_json(json.loads(out)["matrix"])
    assert np.allclose(u, gate("CNOT"))


def test_out_and_quiet(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["classify", "--channel", "builtin:phase_flip?p=0.5", "--out", str(target), "--quiet"])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["unital"] is True


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, ["deutsch", "--oracle", "no_such_file.json"])
    assert code == 2
    assert out == ""
    assert json.loads(err.splitlines()[0])["error"] == "FileNotFoundError"


def test_bad_schema_exits_2(tmp_path, capsys):
    oracle = write(tmp_path / "bad.json", {"m": 1, "k": 1, "table": [0, 1, 0]})
    code, _, err = run(capsys, ["deutsch", "--oracle", oracle])
    assert code == 2
    assert "InvalidParameter" in err


def test_promise_violation_exits_3(tmp_path, capsys):
    oracle = write(tmp_path / "skew.json", {"m": 2, "k": 1, "table": [0, 0, 0, 1]})
    code, _, err = run(capsys, ["deutsch-jozsa", "--oracle", oracle])
    assert code == 3
    assert json.loads(err.splitlines()[0])["error"] == "PromiseViolatedError"


def test_non_tp_channel_exits_3(tmp_path, capsys):
    lossy = write(tmp_path / "lossy.json", {"dim": 2, "kraus": [matrix_to_json(np.diag([1.0, 0.0]))]})
    code, _, err = run(capsys, ["fix-vs-commutant", "--channel", lossy])
    assert code == 3
    assert "NotTracePreserving" in err


@pytest.mark.parametrize("verb", ["classify", "choi", "fix"])
def test_oversized_superoperator_exits_3(tmp_path, capsys, verb):
    identity = write(tmp_path / "id128.json", {"dim": 128, "kraus": [matrix_to_json(np.eye(128))]})
    code, out, err = run(capsys, [verb, "--channel", identity])
    assert code == 3
    assert out == ""
    assert json.loads(err.splitlines()[0])["error"] == "SizeLimitError"


def test_full_algebra_structure_from_identity_generator(tmp_path, capsys):
    generators = write(tmp_path / "id17.json", [matrix_to_json(np.eye(17))])
    code, out, _ = run(capsys, ["structure", "--generators", generators])
    assert code == 0
    assert json.loads(out)["blocks"] == [{"m": 1, "n": 17}]


def test_oversized_commutant_basis_exits_3(tmp_path, capsys):
    generators = write(tmp_path / "id65.json", [matrix_to_json(np.eye(65))])
    code, out, err = run(capsys, ["commutant", "--generators", generators])
    assert code == 3
    assert out == ""
    assert json.loads(err.splitlines()[0])["error"] == "SizeLimitError"


@pytest.mark.parametrize(
    "verb, channel, blocks",
    [
        ("noiseless", "collective_rotation?n=6", [(3, 9), (5, 5), (1, 5)]),
        ("structure", "permutation?d=3&n=3", [(1, 10), (2, 8), (1, 1)]),
        ("noiseless", "permutation?d=3&n=3", [(1, 10), (2, 8)]),
    ],
)
def test_passive_qec_beyond_toy_sizes(capsys, verb, channel, blocks):
    code, out, _ = run(capsys, [verb, "--channel", f"builtin:{channel}"])
    assert code == 0
    assert [(b["m"], b["n"]) for b in json.loads(out)["blocks"]] == blocks


def test_dead_subspace_report(capsys):
    code, out, _ = run(capsys, ["dead-subspace", "--channel", "builtin:dead_row?d=4"])
    assert code == 0
    report = json.loads(out)
    assert report["invertible"] is False
    assert report["hypothesis_holds"] is False


def test_channels_equal_report(capsys):
    code, out, _ = run(
        capsys,
        ["channels-equal", "--a", "builtin:bit_flip?p=0.3", "--b", "builtin:bit_flip?p=0.3"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    inter = matrix_from_json(report["intertwiner"])
    assert np.allclose(inter, np.eye(2))


def test_choi_and_kraus_from_choi_roundtrip(tmp_path, capsys):
    _, out, _ = run(capsys, ["choi", "--channel", "builtin:amplitude_damping?r=0.5"])
    choi_report = json.loads(out)
    choi_file = write(
        tmp_path / "choi.json", {"block_dim": choi_report["block_dim"], "matrix": choi_report["matrix"]}
    )
    code, out, _ = run(capsys, ["kraus-from-choi", "--choi", choi_file])
    assert code == 0
    assert json.loads(out)["operator_count"] == 2


def test_oversized_integer_exits_2(tmp_path, capsys):
    big = write(tmp_path / "big.json", {"rows": 1, "cols": 1, "data": [[10**400, 0]]})
    code, out, err = run(capsys, ["detect", "--code", "builtin:shor9", "--error", big])
    assert code == 2
    assert out == ""
    assert json.loads(err.splitlines()[0]) == {"error": "SchemaError", "message": "data[0] is not finite"}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    ("table", "verb", "expected"),
    [([0, 1, 1, 0], "deutsch-jozsa", 0), ([0, 1, 0], "deutsch", 2), ([0, 0, 0, 1], "deutsch-jozsa", 3)],
)
def test_main_restores_gc_state(tmp_path, capsys, enabled, table, verb, expected):
    oracle = write(tmp_path / "oracle.json", {"m": 2, "k": 1, "table": table})
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        code, _, _ = run(capsys, [verb, "--oracle", oracle])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert code == expected
