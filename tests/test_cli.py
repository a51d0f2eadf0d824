import json
from pathlib import Path

import pytest

from contactcheck import cli, contact
from contactcheck.cli import main
from faults import (
    BAD_FIBERED_LABEL,
    BAD_HOPF_LABEL,
    corrupted_algebra_bundle,
    corrupted_fibered_chart,
    corrupted_hopf_chart,
)

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


def test_adjoint_payload_ranks(capsys):
    code, out = run(capsys, "adjoint", "G2", "--samples", "3")
    assert code == 0
    payload = json.loads(out)["config"]["payload"]
    assert payload["embedding_ranks"] == [
        {"point": idx, "tangent_rank": payload["orbit_dim"]} for idx in range(3)
    ]


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
    ["verify-lemma21", "--model", "fibered", "--delta", "3", "--fdeg", "2"],
    ["verify-contact", "--model", "hopf", "--samples", "-3"],
    ["roots", "A2", "--output", "/nonexistent/x.json"],
    ["verify-lemma21", "--model", "hopf", "--samples", "0"],
    ["verify-lemma21", "--model", "hopf", "--fdeg", "1", "--gdeg", "2", "--samples", "0"],
    ["verify-lemma22", "--model", "fibered", "--delta", "3", "--samples", "0"],
    ["quotient", "--samples", "0"],
    ["immersion", "--samples", "0"],
    ["adjoint", "A1", "--samples", "0"],
    ["all", "--samples", "0"],
    ["cocycle", "--n", "4"],
    ["cocycle", "--n", "-1"],
])
def test_bad_hopf_input_is_config_error(capsys, command):
    code = main(command)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("configuration error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_non_integer_env_seed_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("CONTACTCHECK_SEED", "abc")
    code = main(["verify-contact", "--model", "hopf"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("configuration error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_contact_zero_samples_runs_symbolic_checks(capsys):
    code, out = run(capsys, "verify-contact", "--model", "hopf", "--n", "1", "--samples", "0")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["samples"] == 0
    assert [r["check_id"].split(":")[-1] for r in report["results"]] == [
        "scaling-degree-2", "symplectic-top-form", "vertical-annihilation"
    ]


@pytest.mark.parametrize("command, failing", [
    (["verify-contact"], {"vertical-annihilation"}),
    (["verify-lemma21"], {"euler-degree-agrees", "theta-of-hamiltonian"}),
    (["verify-lemma22"], {"theta-invariance", "moment-recovers-f", "moment-degree", "round-trip"}),
])
def test_corrupted_theta_fails_with_report(capsys, monkeypatch, command, failing):
    """A doubled theta coefficient gives rc 1 and named failures, never a traceback."""
    monkeypatch.setattr(cli, "_chart_for", lambda model, n, delta: corrupted_hopf_chart(n))
    code, out = run(capsys, *command, "--model", "hopf", "--n", "1")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    bad = [r for r in report["results"] if r["status"] == "fail"]
    assert bad and all(r["check_id"].startswith(f"{BAD_HOPF_LABEL}:") for r in bad)
    assert {r["check_id"].split(":")[-1] for r in bad} == failing
    assert all(r["witness"] for r in bad)


@pytest.mark.parametrize("command, digest", [
    ("verify-lemma21", "562beebf50dc37fb962255e7358094410515eb1eb6998f2628ebe1e503523be0"),
    ("verify-lemma22", "ba602f33e118e5bcc48eb435ec2b2284526ae307e3fb93decc7055446187090f"),
])
def test_corrupted_theta_report_text_is_pinned(capsys, monkeypatch, command, digest):
    """The failure witnesses of a corrupted theta (hopf n=1, seed 2024) keep their exact text."""
    import hashlib

    monkeypatch.setattr(cli, "_chart_for", lambda model, n, delta: corrupted_hopf_chart(n))
    code, out = run(capsys, command, "--model", "hopf", "--n", "1", "--seed", "2024")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, delta, digest", [
    (1, 3, "2a0a91b918cdcd93a825a40c9b3a66fe7deac1c2f8ec01721a9155dbd875f68c"),
    (2, -1, "1aee108a65e73d69dbc7683f849fd4eece4fc1cc08a33c749839da152e44bd1b"),
])
def test_fibered_dump_forms_text_is_pinned(capsys, n, delta, digest):
    """--dump-forms on a fibered chart keeps its exact lam^k*(...) text."""
    import hashlib

    argv = ["verify-contact", "--model", "fibered", "--n", str(n), "--delta", str(delta)]
    code, out = run(capsys, *argv, "--dump-forms", "--seed", "2024")
    assert code == 0
    assert "lam^" in json.loads(out)["config"]["payload"]["d_theta"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, delta, command, digest", [
    (1, 3, "verify-lemma21", "92d217a683d0c8cebeb071d985600d61382417ef3aa873feb4d2be446ca99337"),
    (1, 3, "verify-lemma22", "0f06ed26fb634156e8b77e1b5c89e98094bc16d3a9edd41ba9b7de3ef1423b30"),
    (2, -1, "verify-lemma21", "6a13fa0e62ddec431cb6bd6341e12b4532e6ddca0c05791ef8379c80ade84bbe"),
    (2, -1, "verify-lemma22", "c124fd27fdb3808ea64be7277df9c59c489f6a35cf2e82cc83fdd68b3d967ded"),
])
def test_corrupted_fibered_report_text_is_pinned(capsys, monkeypatch, n, delta, command, digest):
    """The failure witnesses of a corrupted fibered theta (seed 2024) keep their exact
    text, including coefficients printed as lam^k*(...)."""
    import hashlib

    monkeypatch.setattr(cli, "_chart_for", lambda model, n, delta: corrupted_fibered_chart(n, delta))
    argv = [command, "--model", "fibered", "--n", str(n), "--delta", str(delta), "--seed", "2024"]
    code, out = run(capsys, *argv)
    assert code == 1
    bad = [r for r in json.loads(out)["results"] if r["status"] == "fail"]
    assert bad and all(r["check_id"].startswith(f"{BAD_FIBERED_LABEL}:") for r in bad)
    assert any("lam^" in r["witness"] and "*(" in r["witness"] for r in bad)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lemma21_adds_no_zero_scalars(capsys, monkeypatch):
    """No Gaussian-rational sum on the Hamiltonian path has a zero operand."""
    from contactcheck.scalars import GaussianRational

    add = GaussianRational.__add__
    sums, zero_sums = [], []

    def counting_add(self, other):
        sums.append(self)
        if self.is_zero() or GaussianRational.coerce(other).is_zero():
            zero_sums.append((self, other))
        return add(self, other)

    monkeypatch.setattr(GaussianRational, "__add__", counting_add)
    monkeypatch.setattr(GaussianRational, "__radd__", counting_add)
    argv = ["verify-lemma21", "--model", "fibered", "--n", "1", "--delta", "3", "--samples", "2"]
    code, _ = run(capsys, *argv)
    assert code == 0
    assert sums and zero_sums == []


@pytest.mark.parametrize("argv", [
    ["verify-lemma21", "--model", "fibered", "--n", "2", "--delta", "-1", "--samples", "7"],
    ["verify-lemma22", "--model", "fibered", "--n", "2", "--delta", "-2", "--samples", "5"],
], ids=["lemma21", "lemma22"])
def test_hamiltonian_path_aligns_no_variable_tuples(capsys, monkeypatch, argv):
    """Every chart coefficient is spelled over the chart's variables, so no
    ``MultiPoly`` operation on the Hamiltonian path re-spells an operand."""
    from contactcheck.poly import MultiPoly

    aligned = MultiPoly.aligned
    calls, differing = [], []

    def counting_aligned(self, other):
        calls.append(self)
        if self.vars != other.vars:
            differing.append((self.vars, other.vars))
        return aligned(self, other)

    monkeypatch.setattr(MultiPoly, "aligned", counting_aligned)
    code, _ = run(capsys, *argv, "--seed", "2024")
    assert code == 0
    assert calls and differing == []


def test_dump_forms_on_corrupted_theta_reports_the_failure(capsys, monkeypatch):
    """--dump-forms writes the solved Euler field; the axiom suite reports the mismatch."""
    from contactcheck.contact import euler_field, hopf_chart

    argv = ["verify-contact", "--model", "hopf", "--n", "1", "--dump-forms"]
    code, out = run(capsys, *argv)
    assert code == 0
    good = json.loads(out)["config"]["payload"]["euler_field"]
    assert good == str(euler_field(hopf_chart(1)))
    monkeypatch.setattr(cli, "_chart_for", lambda model, n, delta: corrupted_hopf_chart(n))
    code, out = run(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert [r["check_id"] for r in report["results"] if r["status"] == "fail"] == [
        f"{BAD_HOPF_LABEL}:vertical-annihilation"
    ]
    assert report["config"]["payload"]["euler_field"] not in ("", good)


#: Failing checks and witnesses of ``adjoint --seed 2024 --samples 3`` on a
#: table with one doubled root-root constant.
CORRUPTED_ADJOINT_FAILURES = {
    "A2": {
        "adjoint:automorphism-brackets": "first failing basis pair (e[0,1], e[1,0])",
        "adjoint:automorphism-killing": "first failing basis pair (h1, e[1,0])",
        "adjoint:isotropic-1": "B(pt, pt) = -25/10368",
        "embedding:tangent-rank-1": "rank 5 != 4",
    },
    "G2": {
        "adjoint:automorphism-brackets": "first failing basis pair (e[0,1], e[1,0])",
        "adjoint:automorphism-killing": "first failing basis pair (e[0,1], e[2,1])",
    },
    "B3": {
        "adjoint:automorphism-brackets": "first failing basis pair (e[0,0,1], e[0,1,0])",
        "adjoint:automorphism-killing": "first failing basis pair (e[0,0,1], e[1,1,0])",
        "embedding:tangent-rank-1": "rank 9 != 8",
    },
}


@pytest.mark.parametrize("name", sorted(CORRUPTED_ADJOINT_FAILURES))
def test_corrupted_constant_through_the_cli(capsys, monkeypatch, name):
    """A doubled Chevalley constant gives written reports, never a traceback.

    ``adjoint`` fails with rc 1 and names the point or basis pair.  None of
    ``algebra``'s four checks sees this corruption, so it still exits 0.
    """
    monkeypatch.setattr(cli, "_algebra_bundle", corrupted_algebra_bundle)
    code = main(["algebra", name])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (code, report["schema"], report["ok"], captured.err) == (0, 1, True, "")
    code = main(["adjoint", name, "--seed", "2024", "--samples", "3"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (code, report["schema"], report["ok"], captured.err) == (1, 1, False, "")
    failures = {r["check_id"]: r["witness"] for r in report["results"] if r["status"] == "fail"}
    assert failures == CORRUPTED_ADJOINT_FAILURES[name]


@pytest.mark.parametrize("n", [1, 2])
def test_invalid_cstructure_fails_one_check_through_the_cli(capsys, monkeypatch, n):
    """A c-structure that fails validation is one failing check, never a traceback.

    Doubling one image of the V0 -> V1 transition breaks (C.2) on that pair.
    """
    transition = contact.projective_transition

    def doubled(n_vars, i, j):
        images = transition(n_vars, i, j)
        if (i, j) != (0, 1):
            return images
        name = min(images)
        return dict(images, **{name: images[name] * 2})

    monkeypatch.setattr(contact, "projective_transition", doubled)
    code = main(["cocycle", "--n", str(n)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (code, report["schema"], report["ok"], captured.err) == (1, 1, False, "")
    assert report["results"] == [
        {"check_id": "cocycle:c-structure", "status": "fail", "witness": "(C.2) fails for pair (V0, V1)"}
    ]


def _benchmark_file(name: str) -> Path:
    return Path(__file__).resolve().parent.parent / "perfbench" / name


@pytest.mark.parametrize("name", ["D4", "F4"])
def test_exceptional_reports_match_benchmark_digests(name, monkeypatch):
    """algebra and adjoint on D4/F4 at seed 2024 reproduce the recorded sha256 digests."""
    import hashlib
    import importlib.util

    from contactcheck import rootsystem

    path = _benchmark_file("workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads(_benchmark_file("reference.json").read_text())
    digests = reference["seeds"]["2024"]["lie-exceptional"]
    monkeypatch.setitem(rootsystem.CARTAN_MATRICES, name, workloads.EXCEPTIONAL_CARTAN[name])
    reports = {
        f"algebra[{name}]": cli.run_algebra({"command": "algebra", "type": name}),
        f"adjoint[{name}]": cli.run_adjoint(
            {"command": "adjoint", "type": name, "samples": 3, "seed": 2024}
        ),
    }
    for key, report in reports.items():
        assert report.ok, key
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digests[key], key


def test_extra_test_types_match_the_benchmark_matrices():
    """The test suite's D4 and F4 are the matrices the benchmark injects."""
    import importlib.util

    from conftest import EXTRA_CARTAN

    spec = importlib.util.spec_from_file_location("_bench_workloads", _benchmark_file("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, entries in workloads.EXCEPTIONAL_CARTAN.items():
        assert EXTRA_CARTAN[name] == entries, name


def test_cocycle_n2_report_matches_benchmark_digest():
    """cocycle --n 2 reproduces the sha256 digest recorded for the benchmark."""
    import hashlib

    reference = json.loads(_benchmark_file("reference.json").read_text())
    digest = reference["seed_independent"]["cocycle"]["cocycle[n=2]"]
    report = cli.run_cocycle({"command": "cocycle", "n": 2})
    assert report.ok
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
