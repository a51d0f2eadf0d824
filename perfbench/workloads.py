"""The four benchmark workloads and the facts their reports must show.

Each workload's :func:`setup` builds the inputs from the seed and returns the
suite calls still to be made, one per report.  A suite call returns the report
text and the exit code the CLI would give it.  Everything before the first
suite call is set-up; everything after it is the timed pass.
"""

from __future__ import annotations

import contextlib
import io
from typing import Callable, Dict, List, Tuple

SuiteCall = Callable[[], Tuple[str, int]]

#: Cartan matrices supplied by the benchmark: D4 (dim 28) and F4 (dim 52).
EXCEPTIONAL_CARTAN = {
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}

#: Five-piece grading dims of the highest-root grading; piece 1 is g_1.
PIECE_DIMS = {"D4": [1, 8, 10, 8, 1], "F4": [1, 14, 22, 14, 1]}

LEMMA21_CHARTS = (("hopf", 2, 2), ("fibered", 1, 3), ("fibered", 1, -2), ("fibered", 2, -1))
LEMMA22_CHART = ("fibered", 2, -2)
COCYCLE_NS = (2, 3)

#: Checks per report at seed 2024.  They hold at every seed, except for
#: cli-all: how many quotient checks `contactcheck all` makes depends on the
#: sampled monomials.
NOMINAL_CHECKS: Dict[str, Dict[str, int]] = {
    "cli-all": {"all": 415},
    "lie-exceptional": {
        "algebra[D4]": 4,
        "adjoint[D4]": 17,
        "algebra[F4]": 4,
        "adjoint[F4]": 17,
    },
    "contact-hamiltonian": {
        "lemma21[hopf,n=2,delta=2]": 125,
        "lemma21[fibered,n=1,delta=3]": 245,
        "lemma21[fibered,n=1,delta=-2]": 245,
        "lemma21[fibered,n=2,delta=-1]": 245,
        "lemma22[fibered,n=2,delta=-2]": 20,
    },
    "cocycle": {"cocycle[n=2]": 30, "cocycle[n=3]": 56},
}


def _cli_call(cli, argv: List[str]) -> SuiteCall:
    def call() -> Tuple[str, int]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return out.getvalue(), rc

    return call


def _report_call(build) -> SuiteCall:
    def call() -> Tuple[str, int]:
        report = build()
        return report.to_json(), 0 if report.ok else 1

    return call


def setup_cli_all(seed: int) -> Dict[str, SuiteCall]:
    from contactcheck import cli

    return {"all": _cli_call(cli, ["all", "--seed", str(seed), "--samples", "5"])}


def setup_lie_exceptional(seed: int) -> Dict[str, SuiteCall]:
    from contactcheck import cli, rootsystem

    # The CLI resolves type names through this table; adding the two
    # validated matrices is how the benchmark hands them to the suites.
    for name, entries in EXCEPTIONAL_CARTAN.items():
        rootsystem.CartanMatrix(entries)
        rootsystem.CARTAN_MATRICES[name] = entries
    calls: Dict[str, SuiteCall] = {}
    for name in EXCEPTIONAL_CARTAN:
        algebra = {"command": "algebra", "type": name}
        adjoint = {"command": "adjoint", "type": name, "samples": 3, "seed": seed}
        calls[f"algebra[{name}]"] = _report_call(lambda c=algebra: cli.run_algebra(c))
        calls[f"adjoint[{name}]"] = _report_call(lambda c=adjoint: cli.run_adjoint(c))
    return calls


def setup_contact_hamiltonian(seed: int) -> Dict[str, SuiteCall]:
    from contactcheck import cli

    def argv(command: str, model: str, n: int, delta: int, samples: int) -> List[str]:
        return [command, "--model", model, "--n", str(n), "--delta", str(delta),
                "--samples", str(samples), "--seed", str(seed)]

    calls: Dict[str, SuiteCall] = {}
    for model, n, delta in LEMMA21_CHARTS:
        calls[f"lemma21[{model},n={n},delta={delta}]"] = _cli_call(
            cli, argv("verify-lemma21", model, n, delta, 7)
        )
    model, n, delta = LEMMA22_CHART
    calls[f"lemma22[{model},n={n},delta={delta}]"] = _cli_call(
        cli, argv("verify-lemma22", model, n, delta, 5)
    )
    return calls


def setup_cocycle(seed: int) -> Dict[str, SuiteCall]:
    # The CLI accepts only n in {0, 1}; larger charts go through the library.
    from contactcheck import contact
    from contactcheck.report import Report

    calls: Dict[str, SuiteCall] = {}
    for n in COCYCLE_NS:
        cc = contact.hopf_chart(n)
        sections = contact.hopf_sections(n)

        def build(cc=cc, sections=sections, n=n) -> Report:
            cs = contact.reconstruct_cstructure(cc, sections)
            report = Report({"command": "cocycle", "n": n})
            report.extend(contact.canonical_cocycle_check(cs, n))
            return report

        calls[f"cocycle[n={n}]"] = _report_call(build)
    return calls


SETUPS = {
    "cli-all": setup_cli_all,
    "lie-exceptional": setup_lie_exceptional,
    "contact-hamiltonian": setup_contact_hamiltonian,
    "cocycle": setup_cocycle,
}


def fact_problems(workload: str, output: str, report: dict) -> List[str]:
    """Facts that hold at every seed, besides no check failing."""
    problems = []
    if workload != "cli-all":
        count, expected = len(report["results"]), NOMINAL_CHECKS[workload][output]
        if count != expected:
            problems.append(f"{output}: {count} checks, expected {expected}")
    if workload == "lie-exceptional":
        name = output[output.index("[") + 1 : -1]
        piece_dims = report["config"]["payload"]["piece_dims"]
        if piece_dims != PIECE_DIMS[name]:
            problems.append(f"{output}: piece dims {piece_dims}")
    return problems
