"""Command line front end: every verification suite behind one binary.

Commands mirror the library suites; all output is schema-versioned JSON on
stdout (or ``--output``), and two runs with the same configuration produce
byte-identical reports.  Exit codes: 0 all checks pass, 1 at least one check
failed, 2 configuration error.

:data:`COMMANDS` is the one list of commands: each row gives a command's
runner, help text, options and ``--samples`` default, and the parser, the
runner lookup and ``all`` read it.  :data:`ALL_SUITES` is the one list of what
``all`` runs: each entry names a command, its configuration, the prefix its
check ids take in the merged report, and how ``all``'s ``--samples`` maps to
the suite's.

The default seed comes from the ``CONTACTCHECK_SEED`` environment variable
when set, else 2024.

``argparse`` is imported by :func:`_build_parser` alone: the ``run_*``
functions that library callers use directly never load it.  The parser is
built on the first :func:`main` call and reused by every later call in the
process; parsing leaves it unchanged, since each call gets a fresh namespace.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import contact, orbits
from .lie import build_algebra, chi_differential, g00_span_check, grade, killing
from .report import CheckResult, Report, check, failed
from .rootsystem import CARTAN_MATRICES, builtin_root_system
from .sampling import SeededSampler
from .scalars import GaussianRational

if TYPE_CHECKING:
    import argparse

DEFAULT_SEED = 2024
#: Largest n the ``cocycle`` command accepts.
COCYCLE_MAX_N = 3
#: Largest n the ``quotient`` command accepts: its dimension counts build every
#: monomial of degree up to 6 in 2n + 2 variables, 100,947 of degree 6 at n = 8
#: and 3,262,623 at n = 16.
QUOTIENT_MAX_N = 8
ALGEBRA_TYPES = tuple(sorted(CARTAN_MATRICES))


def _default_seed() -> int:
    env = os.environ.get("CONTACTCHECK_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"CONTACTCHECK_SEED must be an integer, got {env!r}") from exc


class ConfigError(Exception):
    pass


def _chart_for(model: str, n: int, delta: int) -> contact.ContactChart:
    if model not in ("hopf", "fibered"):
        raise ConfigError(f"unknown model {model!r}")
    if model == "hopf" and delta != 2:
        raise ConfigError(f"the hopf model has degree 2, not {delta}")
    try:
        return contact.hopf_chart(n) if model == "hopf" else contact.fibered_chart(n, delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _samples(config: Dict[str, object]) -> int:
    """The sample count of a suite that needs at least one sample."""
    samples = int(config["samples"])
    if samples < 1:
        raise ConfigError(f"--samples must be >= 1 for this command, got {samples}")
    return samples


def _algebra_bundle(type_name: str):
    if type_name not in CARTAN_MATRICES:
        raise ConfigError(
            f"unknown algebra type {type_name!r}; known: {', '.join(ALGEBRA_TYPES)}"
        )
    rs = builtin_root_system(type_name)
    sc = build_algebra(rs)
    kd = killing(sc)
    gd = grade(sc, kd)
    return rs, sc, kd, gd


# -- command payloads --------------------------------------------------------------


def run_roots(config: Dict[str, object]) -> Report:
    rs = builtin_root_system(str(config["type"]))
    report = Report(config)
    report.extend([check("roots:generated", True)])
    report.config["payload"] = rs.to_dict()
    return report


def run_algebra(config: Dict[str, object]) -> Report:
    rs, sc, kd, gd = _algebra_bundle(str(config["type"]))
    report = Report(config)
    dims = gd.dims()
    g1 = len(gd.pieces[1])
    table = []
    for (i, j), entry in sorted(sc.table.items()):
        table.append([i, j, {str(k): str(c) for k, c in sorted(entry.items())}])

    def dense(vec):
        return [str(vec[k]) if k in vec else "0" for k in range(sc.dim)]

    report.config["payload"] = {
        "dimension": sc.dim,
        "basis_labels": list(sc.basis.labels),
        "piece_dims": list(dims),
        "dim_contact_base": g1 + 1,
        "dim_cone": g1 + 2,
        "structure_constants": table,
        "killing_gram": [dense(row) for row in kd.gram],
        "h_rho": dense(kd.hrho),
    }
    report.extend(
        [
            check("algebra:grading-span", sum(dims) == sc.dim),
            check("algebra:extreme-dims", dims[0] == dims[4] == 1),
            check("algebra:g00-span", g00_span_check(gd)),
            check(
                "algebra:character-differential",
                chi_differential(kd) == GaussianRational(2),
            ),
        ]
    )
    return report


def run_verify_contact(config: Dict[str, object]) -> Report:
    cc = _chart_for(str(config["model"]), int(config["n"]), int(config["delta"]))
    sampler = SeededSampler(int(config["seed"]))
    points = [sampler.point(cc) for _ in range(int(config["samples"]))]
    report = Report(config)
    report.extend(contact.verify_axioms(cc, points))
    if config.get("dump_forms"):
        report.config["payload"] = {
            "theta": str(cc.theta),
            "d_theta": str(cc.dtheta),
            # The solved field: on a corrupted theta the axiom suite reports the failure.
            "euler_field": str(contact.solved_euler_field(cc)),
        }
    return report


def _degree_range(cc: contact.ContactChart) -> List[int]:
    lo = 0 if cc.chart.fiber_var is None else -2
    return [d for d in range(lo, 5)]


def run_verify_lemma21(config: Dict[str, object]) -> Report:
    cc = _chart_for(str(config["model"]), int(config["n"]), int(config["delta"]))
    samples = _samples(config)
    sampler = SeededSampler(int(config["seed"]))
    report = Report(config)
    fdeg = config.get("fdeg")
    gdeg = config.get("gdeg")
    if (fdeg is None) != (gdeg is None):
        raise ConfigError("--fdeg and --gdeg must be given together")
    if cc.chart.fiber_var is None and any(d is not None and int(d) < 0 for d in (fdeg, gdeg)):
        raise ConfigError(f"the {config['model']} model has no functions of negative degree")
    if fdeg is not None and gdeg is not None:
        pairs = [(int(fdeg), int(gdeg))] * samples
    else:
        degrees = _degree_range(cc)
        grid = [(a, b) for a in degrees for b in degrees]
        target = min(len(grid), samples * len(degrees))
        pairs = [grid[i * len(grid) // target] for i in range(target)]
    for ell, m in pairs:
        f = sampler.homogeneous(cc, ell)
        g = sampler.homogeneous(cc, m)
        report.extend(contact.check_scaling_identities(cc, f, g))
    return report


def run_verify_lemma22(config: Dict[str, object]) -> Report:
    cc = _chart_for(str(config["model"]), int(config["n"]), int(config["delta"]))
    count = _samples(config)
    sampler = SeededSampler(int(config["seed"]))
    samples = [sampler.homogeneous(cc, cc.delta) for _ in range(count)]
    report = Report(config)
    report.extend(contact.check_invariance_identities(cc, samples))
    return report


def run_cocycle(config: Dict[str, object]) -> Report:
    n = int(config["n"])
    if not 0 <= n <= COCYCLE_MAX_N:
        raise ConfigError(f"cocycle instances ship for 0 <= n <= {COCYCLE_MAX_N}, got {n}")
    report = Report(config)
    try:
        cs = contact.reconstruct_cstructure(contact.hopf_chart(n), contact.hopf_sections(n))
    except ValueError as exc:
        # The message names the failing pair, chart or section.
        report.extend([failed("cocycle:c-structure", exc)])
        return report
    report.extend(contact.canonical_cocycle_check(cs, n))
    return report


def run_quotient(config: Dict[str, object]) -> Report:
    n = int(config["n"])
    if n > QUOTIENT_MAX_N:
        raise ConfigError(f"the quotient suite runs for n <= {QUOTIENT_MAX_N}, got {n}")
    sampler = SeededSampler(int(config["seed"]))
    cc = _chart_for("hopf", n, 2)
    monomials = []
    for _ in range(_samples(config)):
        degree = sampler.integer(0, 6)
        monomials.append(sampler.monomial(cc, degree, max_base_degree=6))
    report = Report(config)
    report.extend(contact.quotient_checks(n, monomials))
    return report


def run_immersion(config: Dict[str, object]) -> Report:
    n = int(config["n"])
    cc = _chart_for("hopf", n, 2)
    sampler = SeededSampler(int(config["seed"]))
    basis = contact.monomial_basis(2 * n + 1, 2)
    fs = [
        contact.HomogeneousFunction(cc, cc.chart.coeff(p), 2) for p in basis
    ]
    points = [sampler.point(cc) for _ in range(_samples(config))]
    rows = contact.immersion_rank(cc, fs, points)
    report = Report(config)
    report.config["payload"] = {"rows": rows, "expected_rank": cc.dim}
    report.extend(
        [
            check("immersion:ranks-consistent", all(r["jacobian_rank"] == r["span_rank"] for r in rows)),
            check("immersion:full-rank", all(r["jacobian_rank"] == cc.dim for r in rows)),
        ]
    )
    single = contact.immersion_rank(cc, fs[:1], points[:1])
    deficient = any(r["jacobian_rank"] != cc.dim for r in single)
    report.extend([check("immersion:single-function-deficient", deficient)])
    return report


def run_adjoint(config: Dict[str, object]) -> Report:
    rs, sc, kd, gd = _algebra_bundle(str(config["type"]))
    count = _samples(config)
    sampler = SeededSampler(int(config["seed"]))
    report = Report(config)
    report.extend(orbits.theta_G_checks(gd))
    points = [orbits.orbit_sample(sc, [])]
    for _ in range(count - 1):
        word = sampler.word(rs, 2)
        points.append(orbits.orbit_sample(sc, word))
    for idx, pt in enumerate(points):
        isotropy = kd.form(pt.vector, pt.vector)
        isotropic = isotropy.is_zero()
        report.extend(
            [
                check(
                    f"adjoint:moment-round-trip-{idx}",
                    orbits.kappa_round_trip(kd, pt),
                ),
                check(
                    f"adjoint:isotropic-{idx}",
                    isotropic,
                    "" if isotropic else f"B(pt, pt) = {isotropy}",
                ),
            ]
        )
    word = sampler.word(rs, 2)
    auto = orbits.exp_ad(sc, *word[0])
    for root, t in word[1:]:
        auto = auto.compose(orbits.exp_ad(sc, root, t))
    brackets_ok = auto.preserves_brackets()
    form_ok = auto.preserves_form(kd)
    report.extend(
        [
            check(
                "adjoint:automorphism-brackets",
                brackets_ok,
                "" if brackets_ok else _pair_witness(sc, auto.bracket_defect()),
            ),
            check(
                "adjoint:automorphism-killing",
                form_ok,
                "" if form_ok else _pair_witness(sc, auto.form_defect(kd)),
            ),
        ]
    )
    ranks = [orbits.tangent_rank(sc, pt) for pt in points]
    report.extend(orbits.embedding_checks(gd, points, ranks))
    report.config["payload"] = {
        "orbit_dim": len(gd.pieces[1]) + 2,
        "centralizer_dim": len(gd.spans["L0"]),
        "piece_dims": list(gd.dims()),
        "embedding_ranks": [
            {"point": idx, "tangent_rank": rank} for idx, rank in enumerate(ranks)
        ],
    }
    return report


def _pair_witness(sc, pair: Tuple[int, int]) -> str:
    """Name the first basis pair an automorphism check failed on."""
    i, j = pair
    labels = sc.basis.labels
    return f"first failing basis pair ({labels[i]}, {labels[j]})"


#: Every suite ``all`` runs, in order: (prefix, command, config, samples rule).
#: The rule maps ``all``'s ``--samples`` to the suite's; a suite whose rule is
#: None takes neither a seed nor a sample count.
ALL_SUITES = (
    *(
        entry
        for t in ALGEBRA_TYPES
        for entry in (
            (f"algebra[{t}]", "algebra", {"type": t}, None),
            (f"adjoint[{t}]", "adjoint", {"type": t}, lambda s: min(s, 3)),
        )
    ),
    *(
        (f"contact[hopf,n={n}]", "verify-contact", {"model": "hopf", "n": n, "delta": 2}, rule)
        for n, rule in ((0, lambda s: s), (1, lambda s: s), (2, lambda s: max(1, s // 2)))
    ),
    *(
        (
            f"contact[fibered,n={n},delta={delta}]",
            "verify-contact",
            {"model": "fibered", "n": n, "delta": delta},
            lambda s: s,
        )
        for delta in (-2, -1, 1, 2, 3)
        for n in (0, 1)
    ),
    *(
        (prefix, command, {"model": model, "n": n, "delta": delta}, rule)
        for prefix, command, model, n, delta, rule in (
            ("lemma21[hopf,n=0]", "verify-lemma21", "hopf", 0, 2, lambda s: 1),
            ("lemma21[fibered,n=0,delta=3]", "verify-lemma21", "fibered", 0, 3, lambda s: 1),
            ("lemma22[hopf,n=0]", "verify-lemma22", "hopf", 0, 2, lambda s: s),
            ("lemma22[fibered,n=1,delta=-2]", "verify-lemma22", "fibered", 1, -2, lambda s: s),
        )
    ),
    *(
        entry
        for n in (0, 1)
        for entry in (
            (f"cocycle[n={n}]", "cocycle", {"n": n}, None),
            (f"quotient[n={n}]", "quotient", {"n": n}, lambda s: s),
            (f"immersion[n={n}]", "immersion", {"n": n}, lambda s: min(s, 5)),
        )
    ),
)


def run_all(config: Dict[str, object]) -> Report:
    seed = int(config["seed"])
    samples = int(config["samples"])
    report = Report(config)
    for prefix, command, suite_config, rule in ALL_SUITES:
        suite_config = dict(suite_config)
        if rule is not None:
            suite_config.update(seed=seed, samples=rule(samples))
        for result in COMMANDS[command][0](suite_config).results:
            report.results.append(
                CheckResult(f"{prefix}/{result.check_id}", result.status, result.witness)
            )
    return report


#: Options as (flag, argparse keywords) pairs: the positional algebra type,
#: ``--n`` and the chart options are shared; the rest belong to one command.
_TYPE = ("type", dict(choices=ALGEBRA_TYPES))
_N = ("--n", dict(type=int, default=0))
_MODEL = ("--model", dict(choices=("hopf", "fibered"), required=True))
_CHART = (_MODEL, _N, ("--delta", dict(type=int, default=2)))
_DUMP_FORMS = ("--dump-forms", dict(action="store_true", help="serialize theta, d theta, Euler field"))
_DEGREES = (("--fdeg", dict(type=int)), ("--gdeg", dict(type=int)))
_COCYCLE_N = ("--n", dict(type=int, required=True, help=f"0 (projective line) to {COCYCLE_MAX_N}"))

#: Every command, in ``--help`` order: (runner, help, options, samples default).
#: A command whose samples default is None takes neither ``--seed`` nor
#: ``--samples``; every command takes ``--output``.
COMMANDS = {
    "roots": (run_roots, "emit a root system as JSON", (_TYPE,), None),
    "algebra": (run_algebra, "emit structure constants, Killing form, grading", (_TYPE,), None),
    "verify-contact": (run_verify_contact, "bundle axioms on a chart model", (*_CHART, _DUMP_FORMS), 5),
    "verify-lemma21": (
        run_verify_lemma21, "Hamiltonian identity suite for homogeneous pairs", (*_CHART, *_DEGREES), 1
    ),
    "verify-lemma22": (run_verify_lemma22, "theta-invariance and round-trip suite", _CHART, 5),
    "cocycle": (run_cocycle, "canonical-bundle cocycle identity", (_COCYCLE_N,), None),
    "quotient": (run_quotient, "sign-quotient descent suite", (_N,), 20),
    "immersion": (run_immersion, "Jacobian/tangent-span rank suite", (_N,), 5),
    "adjoint": (run_adjoint, "orbit, moment map and embedding suite", (_TYPE,), 5),
    "all": (run_all, "run every suite but roots on fixed configurations", (), 5),
}


# -- argument plumbing ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="contactcheck",
        description="Exact verification suites for contact bundles and graded Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, samples_default) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        if samples_default is not None:
            p.add_argument("--seed", type=int, help="deterministic seed")
            p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--output", help="write JSON here instead of stdout")
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    # Every parsed option but --output and --seed; `is not False`, since 0 == False.
    config: Dict[str, object] = {
        key: value
        for key, value in vars(args).items()
        if key not in ("output", "seed") and value is not None and value is not False
    }
    try:
        if getattr(args, "samples", 0) < 0:
            raise ConfigError(f"--samples must be >= 0, got {args.samples}")
        if hasattr(args, "seed"):
            config["seed"] = args.seed if args.seed is not None else _default_seed()
        report = COMMANDS[args.command][0](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json()
    output = args.output
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(
                f"configuration error: cannot write --output {output}: {exc.strerror}",
                file=sys.stderr,
            )
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
