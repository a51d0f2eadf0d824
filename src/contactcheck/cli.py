"""Command line front end: every verification suite behind one binary.

Commands mirror the library suites; all output is schema-versioned JSON on
stdout (or ``--output``), and two runs with the same configuration produce
byte-identical reports.  Exit codes: 0 all checks pass, 1 at least one check
failed, 2 configuration error.

The default seed comes from the ``CONTACTCHECK_SEED`` environment variable
when set, else 2024.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import contact, orbits
from .lie import build_algebra, chi_differential, g00_span_check, grade, killing
from .report import CheckResult, Report, check, failed
from .rootsystem import CARTAN_MATRICES, builtin_root_system
from .sampling import SeededSampler
from .scalars import ZERO, GaussianRational

DEFAULT_SEED = 2024
FIBERED_DELTAS = (-2, -1, 1, 2, 3)
#: Largest n the ``cocycle`` command accepts.
COCYCLE_MAX_N = 3
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
        return [str(vec.get(k, ZERO)) for k in range(sc.dim)]

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
        if n == 0:
            cs = contact.projective_line_cstructure()
        else:
            cs = contact.reconstruct_cstructure(contact.hopf_chart(n), contact.hopf_sections(n))
    except ValueError as exc:
        # The message names the failing pair, chart or section.
        report.extend([failed("cocycle:c-structure", exc)])
        return report
    report.extend(contact.canonical_cocycle_check(cs, n))
    return report


def run_quotient(config: Dict[str, object]) -> Report:
    n = int(config["n"])
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
    rep = contact.immersion_rank(cc, fs, points)
    report = Report(config)
    report.config["payload"] = {"rows": rep.rows, "expected_rank": rep.full_rank}
    report.extend(
        [
            check("immersion:ranks-consistent", rep.consistent()),
            check("immersion:full-rank", rep.all_full()),
        ]
    )
    single = contact.immersion_rank(cc, fs[:1], points[:1])
    report.extend([check("immersion:single-function-deficient", not single.all_full())])
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


def run_all(config: Dict[str, object]) -> Report:
    seed = int(config["seed"])
    samples = int(config["samples"])
    report = Report(config)

    def merge(sub: Report, prefix: str) -> None:
        for result in sub.results:
            report.results.append(
                CheckResult(f"{prefix}/{result.check_id}", result.status, result.witness)
            )

    for type_name in ALGEBRA_TYPES:
        merge(run_algebra({"type": type_name}), f"algebra[{type_name}]")
        merge(
            run_adjoint({"type": type_name, "seed": seed, "samples": min(samples, 3)}),
            f"adjoint[{type_name}]",
        )
    for n in (0, 1):
        merge(
            run_verify_contact(
                {"model": "hopf", "n": n, "delta": 2, "seed": seed, "samples": samples}
            ),
            f"contact[hopf,n={n}]",
        )
    merge(
        run_verify_contact(
            {"model": "hopf", "n": 2, "delta": 2, "seed": seed, "samples": max(1, samples // 2)}
        ),
        "contact[hopf,n=2]",
    )
    for delta in FIBERED_DELTAS:
        for n in (0, 1):
            merge(
                run_verify_contact(
                    {
                        "model": "fibered",
                        "n": n,
                        "delta": delta,
                        "seed": seed,
                        "samples": samples,
                    }
                ),
                f"contact[fibered,n={n},delta={delta}]",
            )
    merge(
        run_verify_lemma21(
            {"model": "hopf", "n": 0, "delta": 2, "seed": seed, "samples": 1}
        ),
        "lemma21[hopf,n=0]",
    )
    merge(
        run_verify_lemma21(
            {"model": "fibered", "n": 0, "delta": 3, "seed": seed, "samples": 1}
        ),
        "lemma21[fibered,n=0,delta=3]",
    )
    merge(
        run_verify_lemma22(
            {"model": "hopf", "n": 0, "delta": 2, "seed": seed, "samples": samples}
        ),
        "lemma22[hopf,n=0]",
    )
    merge(
        run_verify_lemma22(
            {"model": "fibered", "n": 1, "delta": -2, "seed": seed, "samples": samples}
        ),
        "lemma22[fibered,n=1,delta=-2]",
    )
    for n in (0, 1):
        merge(run_cocycle({"n": n}), f"cocycle[n={n}]")
        merge(
            run_quotient({"n": n, "seed": seed, "samples": samples}), f"quotient[n={n}]"
        )
        merge(
            run_immersion({"n": n, "seed": seed, "samples": min(samples, 5)}),
            f"immersion[n={n}]",
        )
    return report


# -- argument plumbing ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactcheck",
        description="Exact verification suites for contact bundles and graded Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, samples_default: int = 5) -> None:
        p.add_argument("--seed", type=int, default=None, help="deterministic seed")
        p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--output", type=str, default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("roots", help="emit a root system as JSON")
    p.add_argument("type", choices=ALGEBRA_TYPES)
    p.add_argument("--output", type=str, default=None)

    p = sub.add_parser("algebra", help="emit structure constants, Killing form, grading")
    p.add_argument("type", choices=ALGEBRA_TYPES)
    p.add_argument("--output", type=str, default=None)

    p = sub.add_parser("verify-contact", help="bundle axioms on a chart model")
    p.add_argument("--model", choices=("hopf", "fibered"), required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--dump-forms", action="store_true", help="serialize theta, d theta, Euler field")
    common(p)

    p = sub.add_parser("verify-lemma21", help="Hamiltonian identity suite for homogeneous pairs")
    p.add_argument("--model", choices=("hopf", "fibered"), required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--fdeg", type=int, default=None)
    p.add_argument("--gdeg", type=int, default=None)
    common(p, samples_default=1)

    p = sub.add_parser("verify-lemma22", help="theta-invariance and round-trip suite")
    p.add_argument("--model", choices=("hopf", "fibered"), required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--delta", type=int, default=2)
    common(p)

    p = sub.add_parser("cocycle", help="canonical-bundle cocycle identity")
    p.add_argument("--n", type=int, required=True, help=f"0 (projective line) to {COCYCLE_MAX_N}")
    p.add_argument("--output", type=str, default=None)

    p = sub.add_parser("quotient", help="sign-quotient descent suite")
    p.add_argument("--n", type=int, default=0)
    common(p, samples_default=20)

    p = sub.add_parser("immersion", help="Jacobian/tangent-span rank suite")
    p.add_argument("--n", type=int, default=0)
    common(p, samples_default=5)

    p = sub.add_parser("adjoint", help="orbit, moment map and embedding suite")
    p.add_argument("type", choices=ALGEBRA_TYPES)
    common(p)

    p = sub.add_parser("all", help="run every suite")
    common(p)
    return parser


RUNNERS = {
    "roots": run_roots,
    "algebra": run_algebra,
    "verify-contact": run_verify_contact,
    "verify-lemma21": run_verify_lemma21,
    "verify-lemma22": run_verify_lemma22,
    "cocycle": run_cocycle,
    "quotient": run_quotient,
    "immersion": run_immersion,
    "adjoint": run_adjoint,
    "all": run_all,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config: Dict[str, object] = {"command": args.command}
    if getattr(args, "dump_forms", False):
        config["dump_forms"] = True
    for key in ("type", "model", "n", "delta", "fdeg", "gdeg", "samples"):
        if hasattr(args, key) and getattr(args, key) is not None:
            config[key] = getattr(args, key)
    try:
        if getattr(args, "samples", 0) < 0:
            raise ConfigError(f"--samples must be >= 0, got {args.samples}")
        if hasattr(args, "seed"):
            config["seed"] = args.seed if args.seed is not None else _default_seed()
        report = RUNNERS[args.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json()
    output = getattr(args, "output", None)
    if output:
        try:
            handle = open(output, "w")
        except OSError as exc:
            print(
                f"configuration error: cannot write --output {output}: {exc.strerror}",
                file=sys.stderr,
            )
            return 2
        with handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
