import json
from pathlib import Path

import pytest

from contactcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"
ALGEBRA_TYPES = ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2"]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_contact_hopf_passes(capsys):
    code, out = run(capsys, "verify-contact", "--model", "hopf", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["schema"] == 1
    ids = {r["check_id"] for r in payload["results"]}
    assert any("vertical-annihilation" in i for i in ids)
    assert any("scaling-degree-2" in i for i in ids)
    assert any("symplectic-top-form" in i for i in ids)


def test_degree_zero_is_config_error(capsys):
    code = main(["verify-contact", "--model", "fibered", "--delta", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "degree 0 is rejected" in captured.err


def test_algebra_g2_dims(capsys):
    code, out = run(capsys, "algebra", "G2")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["payload"]["piece_dims"] == [1, 4, 4, 4, 1]
    assert payload["config"]["payload"]["dim_cone"] == 6


def test_roots_payload(capsys):
    code, out = run(capsys, "roots", "C2")
    assert code == 0
    payload = json.loads(out)["config"]["payload"]
    assert payload["highest_root"] == [2, 1]
    assert len(payload["roots"]) == 8


def test_unknown_type_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["algebra", "Z9"])


@pytest.mark.parametrize("command", [
    ["verify-lemma21", "--model", "hopf", "--n", "0", "--samples", "1"],
    ["verify-lemma21", "--model", "fibered", "--n", "0", "--delta", "-2", "--fdeg", "-1", "--gdeg", "3", "--samples", "1"],
    ["verify-lemma22", "--model", "fibered", "--n", "0", "--delta", "3", "--samples", "3"],
    ["cocycle", "--n", "0"],
    ["cocycle", "--n", "1"],
    ["quotient", "--n", "0", "--samples", "10"],
    ["immersion", "--n", "0", "--samples", "4"],
    ["adjoint", "A2", "--samples", "3"],
])
def test_suites_pass(capsys, command):
    code, out = run(capsys, *command)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_seed_determinism(capsys):
    _, first = run(capsys, "quotient", "--n", "0", "--seed", "7", "--samples", "12")
    _, second = run(capsys, "quotient", "--n", "0", "--seed", "7", "--samples", "12")
    assert first == second
    _, third = run(capsys, "quotient", "--n", "0", "--seed", "8", "--samples", "12")
    assert json.loads(third)["ok"] is True


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("CONTACTCHECK_SEED", "99")
    _, out = run(capsys, "adjoint", "A1", "--samples", "2")
    assert json.loads(out)["config"]["seed"] == 99


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_golden_algebra_outputs(capsys, name):
    """One frozen output file per shipped type; byte-for-byte stable."""
    code, out = run(capsys, "algebra", name)
    assert code == 0
    assert out == (GOLDEN / f"algebra_{name}.json").read_text()


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["roots", "A1", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["ok"] is True


def test_algebra_a2_contact_base_dim(capsys):
    code, out = run(capsys, "algebra", "A2")
    payload = json.loads(out)["config"]["payload"]
    assert payload["dim_contact_base"] == 3  # dim G_1 + 1
    assert payload["dim_cone"] == 4


@pytest.mark.parametrize("command", [
    ["verify-contact", "--model", "hopf", "--n", "-1"],
    ["quotient", "--n", "-1"],
    ["immersion", "--n", "-1"],
    ["verify-lemma21", "--model", "hopf", "--fdeg", "-1", "--gdeg", "0"],
    ["verify-contact", "--model", "hopf", "--delta", "3"],
])
def test_bad_hopf_input_is_config_error(capsys, command):
    code = main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("configuration error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
