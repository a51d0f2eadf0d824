import contextlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcheck import cli, contact
from contactcheck.cli import main
from faults import (
    BAD_FIBERED_LABEL,
    BAD_HOPF_LABEL,
    corrupted_algebra_bundle,
    corrupted_fibered_chart,
    corrupted_hopf_chart,
    exact_shifted_hopf_chart,
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_write_error_is_config_error(capsys):
    """A failed write or close of --output exits 2 with the one message, not 1."""
    code = main(["roots", "A1", "--output", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("configuration error: cannot write --output /dev/full:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


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
    ["quotient", "--n", str(cli.QUOTIENT_MAX_N + 1)],
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


@pytest.mark.parametrize("seed, samples, digest", [
    (2024, 5, "ba586ed1897f49ce4597be93e31faeb64201bdff16b111e09cb37e7737ef3dbe"),
    (7, 5, "2e17c823082c5c96ae4b666cf0bf0795b3caea892fc18f52c8c62542dde4a3e0"),
    (11, 5, "e8020d427309712d350250f6af571e789540184607e0eceb8ba2d2c7a6541f3f"),
    (2024, 1, "d1fe982792c4f5b074585ad841d591f3391845b2a8fbc11d7a643fcb28688e77"),
    (2024, 2, "de3f419c4e1c68beca122b6ba4604b4b4d1db4eb245358e2eb894517709f0952"),
    (2024, 3, "2b902e455a98a8b41ad1f175479da389c49b98319600c60b35c29a1025b1abb2"),
    (2024, 7, "ae836b0c5973d44642a6928e73eb24cb79dd3d6aafc00a754654be2a34ac8c11"),
])
def test_all_report_text_is_pinned(capsys, seed, samples, digest):
    """`all` keeps its exact bytes on both sides of every samples rule: adjoint
    takes at most 3, immersion at most 5, hopf n=2 half (at least 1), lemma21 1."""
    import hashlib

    code, out = run(capsys, "all", "--seed", str(seed), "--samples", str(samples))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _suite_argv(command, config, rule, seed, samples):
    """The argv that runs one ``ALL_SUITES`` entry as its own command."""
    argv = [command]
    for key, value in config.items():
        argv += [str(value)] if key == "type" else [f"--{key}", str(value)]
    if rule is not None:
        argv += ["--seed", str(seed), "--samples", str(rule(samples))]
    return argv


@pytest.mark.parametrize("samples", [5, 1])
def test_all_is_the_sum_of_its_suites(capsys, samples):
    """Each `all` entry, run as its own command, gives exactly the results `all`
    merges under its prefix, and `all` merges nothing else."""

    def results(argv):
        code, out = run(capsys, *argv)
        assert code == 0, argv
        return [(r["check_id"], r["status"], r.get("witness")) for r in json.loads(out)["results"]]

    merged = {}
    for check_id, status, witness in results(["all", "--seed", "2024", "--samples", str(samples)]):
        prefix, _, inner = check_id.partition("/")
        merged.setdefault(prefix, []).append((inner, status, witness))
    prefixes = [prefix for prefix, *_ in cli.ALL_SUITES]
    assert sorted(merged) == sorted(prefixes) and len(set(prefixes)) == len(prefixes)
    for prefix, command, config, rule in cli.ALL_SUITES:
        argv = _suite_argv(command, config, rule, 2024, samples)
        assert results(argv) == merged[prefix], argv


def test_lemma21_adds_no_zero_scalars(capsys, monkeypatch):
    """No Gaussian-rational sum on the Hamiltonian path has a zero operand.

    The sums of products, by ``linalg.add_scaled``, are done in ints on the
    scalars' triples and never reach ``GaussianRational.__add__``, so this
    watches the scalar sums of ``MultiPoly.__add__`` and of the sampler's
    drawn monomials (``linalg.add_terms``); the kernel's sums are checked against
    operator sums by ``tests/test_poly.py::test_product_sum_matches_operator_sums``.
    """
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


#: Modules whose sparse sums must not start from the zero polynomial.
ZERO_SEED_GUARDED = ("forms.py", "contact.py", "sampling.py")
SUM_HELPERS = {("poly.py", "__sub__"), ("poly.py", "__rsub__"), ("linalg.py", "add_terms")}


def test_chart_calculus_adds_no_zero_polynomials(capsys, monkeypatch):
    """No polynomial sum written in forms, contact or sampling has a zero operand.

    A sum made inside ``MultiPoly.__sub__`` or ``linalg.add_terms`` is
    charged to the caller of the subtraction or of the key-by-key sum.  The
    sampler sums its drawn monomials into one term dict and makes no
    polynomial sum (:func:`test_products_are_summed_where_they_are_made` pins
    it); the scalar sums of products are done in ints by ``linalg.add_scaled``
    and checked by ``tests/test_poly.py::test_product_sum_matches_operator_sums``.
    """
    import sys

    from contactcheck.poly import MultiPoly

    add = MultiPoly.__add__
    sums, zero_sums = [], []

    def counting_add(self, other):
        frame = sys._getframe(1)
        while (Path(frame.f_code.co_filename).name, frame.f_code.co_name) in SUM_HELPERS:
            frame = frame.f_back
        caller = Path(frame.f_code.co_filename).name
        if caller in ZERO_SEED_GUARDED:
            sums.append(caller)
            if self == 0 or other == 0:
                zero_sums.append(f"{caller}:{frame.f_code.co_name}")
        return add(self, other)

    monkeypatch.setattr(MultiPoly, "__add__", counting_add)
    monkeypatch.setattr(MultiPoly, "__radd__", counting_add)
    for argv in (
        ["verify-lemma21", "--model", "fibered", "--n", "1", "--delta", "3", "--samples", "2"],
        ["verify-lemma22", "--model", "hopf", "--n", "1", "--samples", "2"],
        ["cocycle", "--n", "1"],
        ["immersion", "--n", "1"],
    ):
        code, _ = run(capsys, *argv)
        assert code == 0, argv
    assert "forms.py" in sums
    assert zero_sums == []


#: The sites in forms.py that build forms and fields through the checked
#: constructors: the public constructors, among them ``function``, through
#: which ``ChartMap`` checks the spelling of the caller's images, and
#: ``scale`` (its scalar may be zero).
CHECKED_FORMS_SITES = {"zero", "function", "d_var", "scale"}


def test_calculus_results_are_not_checked_again(capsys, monkeypatch):
    """No result of the forms arithmetic goes through a checked constructor.

    Counts the ``PolyForm.__init__`` and ``PolyVectorField.__init__`` calls
    made from forms.py outside :data:`CHECKED_FORMS_SITES` during the two
    Hamiltonian suites; contact.py builds its forms through the same
    constructors and must still reach them.
    """
    import sys

    from contactcheck.forms import PolyForm, PolyVectorField

    calls = {"forms.py": [], "contact.py": []}

    def counting(init):
        def checked_init(self, *args, **kwargs):
            code = sys._getframe(1).f_code
            name = Path(code.co_filename).name
            if name == "contact.py" or (name == "forms.py" and code.co_name not in CHECKED_FORMS_SITES):
                calls[name].append(code.co_name)
            init(self, *args, **kwargs)

        return checked_init

    for cls in (PolyForm, PolyVectorField):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    for argv in (
        ["verify-lemma21", "--model", "fibered", "--n", "1", "--delta", "3", "--samples", "2"],
        ["verify-lemma22", "--model", "hopf", "--n", "1", "--samples", "2"],
    ):
        code, _ = run(capsys, *argv)
        assert code == 0, argv
    assert calls["contact.py"]
    assert calls["forms.py"] == []


#: The functions that sum their products where they make them, into plain
#: term dicts, and the one call under them that may still build
#: polynomials: the chart's cached solve of ``-M^-1``.
SUMMED_WHERE_MADE = {
    "forms.py": {"apply_to", "bracket", "interior_product"},
    "contact.py": {"hamiltonian_field"},
    "sampling.py": {"homogeneous"},
}
SOLVER_SETUP = ("contact.py", "_symplectic_solver")


def test_products_are_summed_where_they_are_made(capsys, monkeypatch):
    """No ``MultiPoly`` product, partial derivative or sum is built under the
    derivations, the contraction, the Hamiltonian solve or the sampler.

    A call is charged to the nearest enclosing function of
    :data:`SUMMED_WHERE_MADE`; a call under :data:`SOLVER_SETUP`, the first
    call's inverse of ``-M``, is charged to none.  Every wrapped call is also
    counted wherever it is made (the chart's construction and the solver's
    inverse make some), so the wrappers are seen to run.
    """
    import sys

    from contactcheck.poly import MultiPoly

    calls, elsewhere = [], []

    def counting(name, method):
        def counted(self, *args):
            elsewhere.append(name)
            frame = sys._getframe(1)
            while frame is not None:
                site = (Path(frame.f_code.co_filename).name, frame.f_code.co_name)
                if site == SOLVER_SETUP:
                    break
                if site[1] in SUMMED_WHERE_MADE.get(site[0], ()):
                    calls.append(f"{site[1]}: MultiPoly.{name}")
                    break
                frame = frame.f_back
            return method(self, *args)

        return counted

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "diff"):
        monkeypatch.setattr(MultiPoly, name, counting(name, getattr(MultiPoly, name)))
    for argv in (
        ["verify-lemma21", "--model", "fibered", "--n", "1", "--delta", "3", "--samples", "2"],
        ["verify-lemma22", "--model", "hopf", "--n", "1", "--samples", "2"],
    ):
        code, _ = run(capsys, *argv)
        assert code == 0, argv
    assert elsewhere and calls == []


@pytest.mark.parametrize("argv", [
    ["verify-lemma21", "--model", "fibered", "--n", "2", "--delta", "-1", "--samples", "7", "--seed", "2024"],
    ["verify-lemma22", "--model", "fibered", "--n", "2", "--delta", "-2", "--samples", "5", "--seed", "2024"],
    ["cocycle", "--n", "2"],
], ids=["lemma21", "lemma22", "cocycle"])
def test_one_spelling_paths_exit_zero(capsys, argv):
    """A ``MultiPoly`` operation on two spellings raises (test_poly pins it), so
    exit 0 says that the Hamiltonian and cocycle paths spell every operand alike."""
    code, _ = run(capsys, *argv)
    assert code == 0


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

    Shifting theta by d(z0 z1) keeps the chart valid but breaks (C.2) on the pair (V0, V1).
    """
    shifted = exact_shifted_hopf_chart(n)
    monkeypatch.setattr(contact, "hopf_chart", lambda _n: shifted)
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


@pytest.mark.parametrize("n", [2, 3])
def test_cocycle_report_matches_benchmark_digest(n):
    """cocycle --n 2 and 3 reproduce the sha256 digests recorded for the benchmark."""
    import hashlib

    reference = json.loads(_benchmark_file("reference.json").read_text())
    digest = reference["seed_independent"]["cocycle"][f"cocycle[n={n}]"]
    report = cli.run_cocycle({"command": "cocycle", "n": n})
    assert report.ok
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


#: The benchmark's suites, as its workloads run them at seed 2024: D4 and F4
#: ``algebra`` and ``adjoint`` reports (the types injected into
#: ``CARTAN_MATRICES``), and the five contact-hamiltonian argvs.
HASH_ORDER_SUITES = {
    "lie-exceptional": [
        {"command": "algebra", "type": "D4"},
        {"command": "adjoint", "type": "D4", "samples": 3, "seed": 2024},
        {"command": "algebra", "type": "F4"},
        {"command": "adjoint", "type": "F4", "samples": 3, "seed": 2024},
    ],
    "contact-hamiltonian": [
        ["verify-lemma21", "--model", "hopf", "--n", "2", "--delta", "2", "--samples", "7", "--seed", "2024"],
        ["verify-lemma21", "--model", "fibered", "--n", "1", "--delta", "3", "--samples", "7", "--seed", "2024"],
        ["verify-lemma21", "--model", "fibered", "--n", "1", "--delta", "-2", "--samples", "7", "--seed", "2024"],
        ["verify-lemma21", "--model", "fibered", "--n", "2", "--delta", "-1", "--samples", "7", "--seed", "2024"],
        ["verify-lemma22", "--model", "fibered", "--n", "2", "--delta", "-2", "--samples", "5", "--seed", "2024"],
    ],
}

#: Runs a list of suites (a config dict for a ``run_*`` call, or an argv for
#: ``cli.main``) and prints each report, then ``-- exit <code>``.
HASH_ORDER_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from contactcheck import cli, rootsystem
rootsystem.CARTAN_MATRICES.update(json.loads(sys.argv[2]))
for suite in json.loads(sys.argv[3]):
    if isinstance(suite, dict):
        report = getattr(cli, "run_" + suite["command"])(suite)
        print(report.to_json())
        code = 0 if report.ok else 1
    else:
        code = cli.main(suite)
    print("-- exit", code)
"""


@pytest.mark.parametrize("workload", sorted(HASH_ORDER_SUITES))
def test_benchmark_suites_do_not_depend_on_string_hash_order(workload):
    """Each benchmark suite prints the same bytes under two string-hash seeds.

    The benchmark runs its passes under ``python -I``, where every process
    draws its own hash seed, so an iteration over a str-keyed set or dict
    must not reach a report.
    """
    import subprocess
    import sys

    from conftest import EXTRA_CARTAN

    src = Path(cli.__file__).resolve().parent.parent
    types = json.dumps({name: EXTRA_CARTAN[name] for name in ("D4", "F4")})
    outputs = []
    for hash_seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", HASH_ORDER_PROBE, str(src), types, json.dumps(HASH_ORDER_SUITES[workload])],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, check=True, timeout=600,
        )
        outputs.append(done.stdout)
    exits = [line for line in outputs[0].splitlines() if line.startswith("-- exit")]
    assert exits == ["-- exit 0"] * len(HASH_ORDER_SUITES[workload])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n, checks, digest", [
    (4, 90, "342d4a21171dd3558905a6c1f4411e719136310ab4b99ea56a7f1ebe3a19c496"),
    (5, 132, "45d181a5a0f1860114ef0a2a95346ac6034aaa0a1c6fe7db9005c31772fa042d"),
    (6, 182, "acae9116c96f11a9d8f0bcea4467c81dd7b2fe9c9e169ab611be5668b008c371"),
    (7, 240, "88ebab4f5fb577100cbae42891191e9804060bcc21aa6d6e1310f4375dd445bf"),
])
def test_library_cocycle_report_is_pinned(n, checks, digest):
    """Cocycles past the CLI cap, through the library, keep their exact report."""
    import hashlib

    from contactcheck.report import Report

    cs = contact.reconstruct_cstructure(contact.hopf_chart(n), contact.hopf_sections(n))
    report = Report({"command": "cocycle", "n": n})
    report.extend(contact.canonical_cocycle_check(cs, n))
    assert report.ok and len(report.results) == checks
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


#: Argv fuzz: cheap valid values (rank <= 3, n <= 2, samples <= 2) for each
#: option ``cli.COMMANDS`` names but ``--output``.
FUZZ_VALUES = {
    "type": st.sampled_from(ALGEBRA_TYPES),
    "--model": st.sampled_from(["hopf", "fibered"]),
    "--n": st.integers(0, 2),
    "--delta": st.sampled_from([-2, -1, 1, 2, 3]),
    "--fdeg": st.integers(-2, 3),
    "--gdeg": st.integers(-2, 3),
    "--samples": st.integers(0, 2),
    "--seed": st.integers(0, 3),
}
#: Each command's options, read from its row; the first entry is always given.
FUZZ_COMMANDS = {
    name: tuple(flag for flag, _ in options) + (() if samples is None else ("--samples", "--seed"))
    for name, (_, _, options, samples) in cli.COMMANDS.items()
}
#: The options that take no value.
FUZZ_FLAGS = {
    flag
    for _, _, options, _ in cli.COMMANDS.values()
    for flag, keywords in options
    if keywords.get("action") == "store_true"
}
#: Tokens that replace one argv entry, or are appended, in a bad argv.
FUZZ_BAD = ["-1", "0", "x", "", "1.5", "Z9", "torus", "--bogus", "bogus", "/nonexistent/x.json"]


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = [command]
    for index, arg in enumerate(FUZZ_COMMANDS[command]):
        if index and not draw(st.booleans()):
            continue
        if not arg.startswith("-"):
            argv.append(draw(FUZZ_VALUES[arg]))
        elif arg in FUZZ_FLAGS:
            argv.append(arg)
        else:
            argv += [arg, str(draw(FUZZ_VALUES[arg]))]
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(FUZZ_BAD))
        at = draw(st.integers(0, len(argv)))
        argv[at:at + 1] = [bad]
    return argv


@settings(derandomize=True, deadline=None, max_examples=50)
@given(argv=fuzz_argv())
def test_argv_fuzz_keeps_the_exit_code_contract(argv):
    """rc 0/1/2 for every argv; 1 exactly when the report has a fail; schema-1
    JSON on stdout below 2; never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue(), argv
        return
    report = json.loads(out.getvalue())
    assert report["schema"] == 1
    has_fail = any(r["status"] == "fail" for r in report["results"])
    assert (rc == 1) == has_fail == (report["ok"] is False), argv


def test_fuzz_values_cover_every_option_of_the_table():
    """A new command or option gets fuzzed with no edit to the fuzz."""
    named = {arg for args in FUZZ_COMMANDS.values() for arg in args}
    assert named - FUZZ_FLAGS <= set(FUZZ_VALUES)
    assert set(FUZZ_VALUES) <= named


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_every_command_renders_its_help(name, capsys):
    """Help text is formatted only when rendered: a stray ``%`` in an option's help fails here."""
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: contactcheck {name} ") and "--output OUTPUT" in out


def test_the_command_list_renders(capsys):
    """Each command's own help text is rendered on the top-level list alone."""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert exc.value.code == 0
    assert out.startswith("usage: contactcheck ")
    assert all(help_text in out for _, help_text, _, _ in cli.COMMANDS.values())


#: One process's calls: an argparse error and a ConfigError (both rc 2) between
#: passing suites, and ``--dump-forms`` before a call without it.
REUSE_ARGVS = [
    ["verify-lemma21", "--model", "hopf", "--n", "1", "--samples", "2"],
    ["verify-lemma21", "--model", "sphere"],
    ["verify-contact", "--model", "hopf", "--n", "1", "--dump-forms"],
    ["verify-contact", "--model", "fibered", "--delta", "0"],
    ["verify-contact", "--model", "hopf", "--n", "1"],
    ["cocycle", "--n", "1"],
    ["verify-lemma22", "--model", "fibered", "--n", "1", "--delta", "-2", "--samples", "2"],
]

FRESH_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from contactcheck.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


def test_one_parser_serves_every_call_in_a_process(monkeypatch):
    """Calls in one process print what fresh processes print, and build one parser."""
    import subprocess
    import sys

    monkeypatch.delenv("CONTACTCHECK_SEED", raising=False)
    monkeypatch.setattr(cli, "_parser", None)
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    in_process = []
    for argv in REUSE_ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        in_process.append((out.getvalue(), rc))
    assert len(built) == 1
    assert [rc for _, rc in in_process] == [0, 2, 0, 2, 0, 0, 0]
    src = str(Path(cli.__file__).resolve().parent.parent)
    for argv, (out, rc) in zip(REUSE_ARGVS, in_process):
        fresh = subprocess.run(
            [sys.executable, "-I", "-c", FRESH_MAIN, src, *argv],
            capture_output=True, text=True, timeout=300,
        )
        assert (fresh.stdout, fresh.returncode) == (out, rc), argv


def _every_report_made(monkeypatch, run):
    """The ``Report`` objects the CLI builds while ``run()`` runs, sub-suites included."""
    made = []

    class Recorded(cli.Report):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cli, "Report", Recorded)
    run()
    monkeypatch.undo()
    return made


@pytest.mark.parametrize("argv", [
    ["all", "--seed", "2024"],
    ["all", "--seed", "7", "--samples", "5"],
], ids=["all-2024", "all-7-samples-5"])
def test_report_writer_equals_json_dumps_on_every_all_report(argv, capsys, monkeypatch):
    """The `all` report and each sub-suite report it merges: the writer's text
    is ``json.dumps(sort_keys=True, indent=2)`` plus a newline."""
    reports = _every_report_made(monkeypatch, lambda: main(argv))
    printed = capsys.readouterr().out
    assert len(reports) == len(cli.ALL_SUITES) + 1 and reports[0].to_json() == printed
    for report in reports:
        assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("workload", sorted(HASH_ORDER_SUITES))
def test_report_writer_equals_json_dumps_on_the_benchmark_suites(workload, capsys, monkeypatch):
    from conftest import EXTRA_CARTAN
    from contactcheck import rootsystem

    def run_suites():
        for name in ("D4", "F4"):
            monkeypatch.setitem(rootsystem.CARTAN_MATRICES, name, EXTRA_CARTAN[name])
        for suite in HASH_ORDER_SUITES[workload]:
            if isinstance(suite, dict):
                getattr(cli, "run_" + suite["command"])(suite)
            else:
                main(suite)

    reports = _every_report_made(monkeypatch, run_suites)
    capsys.readouterr()
    assert len(reports) == len(HASH_ORDER_SUITES[workload])
    for report in reports:
        assert report.ok
        assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", ALGEBRA_TYPES)
def test_report_writer_reproduces_each_golden(name):
    from contactcheck.report import _json_text

    text = (GOLDEN / f"algebra_{name}.json").read_text()
    assert _json_text(json.loads(text)) + "\n" == text
