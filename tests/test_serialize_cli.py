import json
from fractions import Fraction

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import serialize as io
from hopf_partial.cli import main
from hopf_partial.demos import (graded_projection, partially_graded_module,
                                shipped_partial_algebras)

F = Fraction


def test_scalar_strings():
    assert io.scalar_to_str(F(1, 2)) == "1/2"
    assert io.scalar_to_str(F(-3)) == "-3"
    assert io.scalar_from_json("1/2") == F(1, 2)
    assert io.scalar_from_json("-3") == F(-3)
    assert io.scalar_from_json(7) == F(7)
    with pytest.raises(io.FormatError):
        io.scalar_from_json(0.5)
    with pytest.raises(io.FormatError):
        io.scalar_from_json("1/0")


def test_hopf_round_trip():
    for name in hp.BUILTIN_NAMES:
        h = hp.builtin(name)
        again = io.hopf_from_json(io.loads(io.dumps(io.hopf_to_json(h))))
        assert again == h
    assert io.hopf_from_json("sweedler") == hp.sweedler_h4()
    with pytest.raises(io.FormatError):
        io.hopf_from_json("kC7")


def test_partial_module_round_trip():
    m = partially_graded_module(1, 1, 1)
    doc = io.partial_module_to_json(m, hopf_ref="kC2-dual")
    again = io.partial_module_from_json(io.loads(io.dumps(doc)))
    assert again == m


def test_partial_algebra_round_trip():
    for alg in shipped_partial_algebras().values():
        doc = io.partial_algebra_to_json(alg)
        again = io.partial_algebra_from_json(io.loads(io.dumps(doc)))
        assert again == alg


def test_output_is_deterministic():
    m = partially_graded_module(2, 1, 1)
    doc = io.partial_module_to_json(m)
    assert io.dumps(doc) == io.dumps(io.loads(io.dumps(doc)))


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(io.dumps(payload))
    return str(path)


def test_cli_validate_hopf(tmp_path, capsys):
    path = _write(tmp_path, "h4.json", io.hopf_to_json(hp.sweedler_h4()))
    assert main(["validate-hopf", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"]


def test_cli_validate_hopf_reports_witness(tmp_path, capsys):
    h4 = hp.sweedler_h4()
    doc = io.hopf_to_json(h4)
    doc["antipode"] = io.mat_to_json(la.Mat(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
    path = _write(tmp_path, "bad.json", doc)
    assert main(["validate-hopf", "--input", path]) == 1
    out = json.loads(capsys.readouterr().out)
    failing = [c for c in out["checks"] if not c["passed"]]
    assert any(c["name"] == "antipode" and c.get("witness") == [2]
               for c in failing)


def test_cli_dilate_reproduces_projection(tmp_path, capsys):
    m = partially_graded_module(1, 1, 1)
    path = _write(tmp_path, "m.json",
                  io.partial_module_to_json(m, hopf_ref="kC2-dual"))
    assert main(["dilate", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dilation_dim"] == 4
    assert out["proper"] and out["minimal"]
    assert out["t"] == [["1", "0", "0", "0"],
                        ["0", "1/2", "0", "1/2"],
                        ["0", "0", "1", "0"],
                        ["0", "1/2", "0", "1/2"]]


def test_cli_classify_both_kinds(tmp_path, capsys):
    m = partially_graded_module(2, 0, 1)
    path = _write(tmp_path, "m.json",
                  io.partial_module_to_json(m, hopf_ref="kC2-dual"))
    assert main(["classify", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == {"eigenvalue_1": 2, "eigenvalue_0": 0,
                           "eigenvalue_half": 1}

    from hopf_partial.partial import w_n_module
    w2 = w_n_module(2)
    path = _write(tmp_path, "w2.json",
                  io.partial_module_to_json(w2, hopf_ref="sweedler"))
    assert main(["classify", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "sweedler"
    assert out["pure_dim"] == 2 and out["global_dim"] == 0


def test_cli_core_shadow_restrict(tmp_path, capsys):
    m = partially_graded_module(1, 1, 1)
    path = _write(tmp_path, "m.json",
                  io.partial_module_to_json(m, hopf_ref="kC2-dual"))
    assert main(["core", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["core_dim"] == 2
    assert main(["shadow", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["shadow_dim"] == 2

    p = graded_projection(1, 1, 1)
    doc = {"module": io.partial_module_to_json(p.module, hopf_ref="kC2-dual"),
           "t": io.mat_to_json(p.t)}
    path = _write(tmp_path, "p.json", doc)
    assert main(["restrict", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3


def test_cli_algebra_verbs(tmp_path, capsys):
    half = shipped_partial_algebras()["kC2-dual-half"]
    path = _write(tmp_path, "half.json",
                  io.partial_algebra_to_json(half, hopf_ref="kC2-dual"))
    assert main(["check-action", "--input", path]) == 0
    capsys.readouterr()
    assert main(["globalize", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["globalization"]["dim"] == 2 and out["report"]["ok"]
    assert main(["smash", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 1
    assert main(["smash", "--global", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 4
    assert main(["morita", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["P_dim"] == 2 and out["Q_dim"] == 2 and out["report"]["ok"]


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check-partial", "--input", str(bad)]) == 2
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    assert main(["check-partial", "--input", str(missing)]) == 2
    capsys.readouterr()

    w1_bad = {"hopf": "sweedler", "dim": 1,
              "pi": [[["1"]], [["1"]], [["1"]], [["1"]]]}
    path = _write(tmp_path, "w1bad.json", w1_bad)
    assert main(["check-partial", "--input", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"]


@pytest.mark.parametrize("verb, doc, message", [
    ("restrict",
     {"module": {"hopf": "kC2-dual", "dim": 2,
                 "pi": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]},
      "t": [["1", "0"]]},
     "projection size does not match the module"),
    ("check-action",
     {"hopf": "kC2-dual", "dim": 2,
      "pi": [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
      "alg_mult": [1, 2], "alg_unit": ["1", "0"]},
     "expected a rank-3 scalar array"),
    ("check-action",
     {"hopf": "kC2-dual", "dim": 2,
      "pi": [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
      "alg_mult": [[["1", "0"]], [["0", "1"]]], "alg_unit": ["1", "0"]},
     "inconsistent algebra data"),
    ("validate-hopf",
     dict(io.hopf_to_json(hp.builtin("kC2")), labels=5),
     "labels must be an array"),
])
def test_cli_malformed_input_exits_2_with_one_line(tmp_path, capsys, verb, doc,
                                                   message):
    path = _write(tmp_path, "malformed.json", doc)
    assert main([verb, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_check_action_reports_failure(tmp_path, capsys):
    doc = {"hopf": "kC2-dual", "dim": 1,
           "pi": [[["1/3"]], [["1/2"]]],
           "alg_mult": [[["1"]]], "alg_unit": ["1"]}
    path = _write(tmp_path, "badalg.json", doc)
    assert main(["check-action", "--input", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"]
    assert any(c["name"] == "PA2" and not c["passed"] for c in out["checks"])


def test_cli_restrict_rejects_incompatible_projection(tmp_path, capsys):
    from hopf_partial.partial import regular_module
    reg = regular_module(hp.sweedler_h4())
    bad_t = la.Mat([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    doc = {"module": io.partial_module_to_json(reg, hopf_ref="sweedler"),
           "t": io.mat_to_json(bad_t)}
    path = _write(tmp_path, "badproj.json", doc)
    assert main(["restrict", "--input", path]) == 1


def test_cli_hopf_flag_injects_builtin(tmp_path, capsys):
    m = partially_graded_module(1, 0, 1)
    doc = io.partial_module_to_json(m)
    del doc["hopf"]
    path = _write(tmp_path, "m.json", doc)
    assert main(["check-partial", "--input", path]) == 2
    capsys.readouterr()
    assert main(["check-partial", "--input", path,
                 "--hopf", "kC2-dual"]) == 0


def test_cli_classify_accepts_inline_hopf_without_labels(tmp_path, capsys):
    m = partially_graded_module(1, 1, 1)
    doc = io.partial_module_to_json(m)
    del doc["hopf"]["labels"]
    path = _write(tmp_path, "inline.json", doc)
    assert main(["classify", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "dual-C2"


def test_cli_demo_single(capsys):
    assert main(["demo", "--name", "linalg-kernels"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"]
    assert "PASS" in captured.err


def test_cli_demo_unknown_name(capsys):
    assert main(["demo", "--name", "nonsense"]) == 2
