"""Acceptance gate: one test per criterion, every comparison bit-exact.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  There are no tolerances anywhere: every assertion is an equality
of canonical exact-arithmetic forms.
"""

import itertools
import time

import pytest

from contactcheck.cli import run_all
from contactcheck.contact import (
    HomogeneousFunction,
    canonical_cocycle_check,
    check_invariance_identities,
    check_scaling_identities,
    fibered_chart,
    homogeneous_space_dim,
    hopf_chart,
    hopf_sections,
    immersion_rank,
    monomial_basis,
    projective_line_cstructure,
    quotient_checks,
    reconstruct_cstructure,
    verify_axioms,
)
from contactcheck.lie import chi_differential, g00_span_check
from contactcheck.orbits import (
    embedding_checks,
    exp_ad,
    kappa_round_trip,
    orbit_sample,
    tangent_rank,
    theta_G_checks,
)
from contactcheck.sampling import SeededSampler
from contactcheck.scalars import ONE, GaussianRational
from oracles import dense_rank, dense_vector

LIE_TYPES = ["A1", "A2", "A3", "C2", "B3", "G2"]


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_lie_algebra_suite(algebra_bundle):
    """Jacobi, Killing invariance, Weyl normalization, rho(H_rho) = 2,
    grading spectrum, G00 double computation -- exact, all shipped types."""
    start = time.monotonic()
    for name in LIE_TYPES:
        rs, sc, kd, gd = algebra_bundle(name)
        n = sc.dim
        units = [{i: ONE} for i in range(n)]
        for a, b, c in itertools.combinations(range(n), 3):
            jac = [
                x + y + z
                for x, y, z in zip(
                    dense_vector(sc.bracket(sc.bracket(units[a], units[b]), units[c]), n),
                    dense_vector(sc.bracket(sc.bracket(units[b], units[c]), units[a]), n),
                    dense_vector(sc.bracket(sc.bracket(units[c], units[a]), units[b]), n),
                )
            ]
            assert all(v.is_zero() for v in jac), (name, a, b, c)
            lhs = kd.form(sc.bracket(units[a], units[b]), units[c])
            rhs = kd.form(units[b], sc.bracket(units[a], units[c]))
            assert lhs == -rhs, (name, a, b, c)
        for root in rs.roots:
            i = sc.basis.root_index(root)
            j = sc.basis.root_index(rs.negative(root))
            assert sc.bracket(units[i], units[j]) == {k: -v for k, v in kd.coroots[root].items()}, (
                name,
                root,
            )
        from contactcheck.lie import root_action

        assert root_action(kd, rs.highest, kd.hrho) == GaussianRational(2), name
        dims = gd.dims()
        assert sum(dims) == n and dims[0] == dims[4] == 1, name
        assert set(gd.pieces) == {-2, -1, 0, 1, 2}
        assert g00_span_check(gd), name
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"Lie suite took {elapsed:.1f}s"
    _report(1, "lie algebra suite")


GRADING_ORACLE = {"A2": (1, 2, 2, 2, 1), "C2": (1, 2, 4, 2, 1), "G2": (1, 4, 4, 4, 1)}


def test_criterion_2_grading_dimensions(algebra_bundle):
    """Grading dims match the independent rho-height oracle and frozen values."""
    for name, expected in GRADING_ORACLE.items():
        rs, sc, kd, gd = algebra_bundle(name)
        assert gd.dims() == expected, name
        # independent oracle: count heights from the Cartan pairing
        counts = {i: 0 for i in range(-2, 3)}
        counts[0] += rs.rank
        for root in rs.roots:
            counts[rs.rho_height(root)] += 1
        assert tuple(counts[i] for i in range(-2, 3)) == expected, name
    _report(2, "grading dimensions vs height oracle")


def test_criterion_3_contact_axiom_suite():
    """Axioms on every shipped chart model; delta = 0 rejected."""
    start = time.monotonic()
    sampler = SeededSampler(101)
    for n in (0, 1, 2):
        cc = hopf_chart(n)
        assert cc.delta == 2
        results = verify_axioms(cc, [sampler.point(cc) for _ in range(5)])
        assert all(r.status == "pass" for r in results), (n, results)
    for delta in (-2, -1, 1, 2, 3):
        for n in (0, 1):
            cc = fibered_chart(n, delta)
            results = verify_axioms(cc, [sampler.point(cc) for _ in range(5)])
            assert all(r.status == "pass" for r in results), (n, delta, results)
    with pytest.raises(ValueError):
        fibered_chart(0, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"contact axiom suite took {elapsed:.1f}s"
    _report(3, "contact axiom suite")


def test_criterion_4_hamiltonian_identity_suite():
    """>= 200 seeded homogeneous pairs across models and degrees -2..4,
    exact equality on every identity for every pair."""
    sampler = SeededSampler(202)
    pair_count = 0
    failures = []
    models = [hopf_chart(0), hopf_chart(1)] + [
        fibered_chart(0, delta) for delta in (-2, -1, 1, 2, 3)
    ]
    for cc in models:
        lo = 0 if cc.chart.fiber_var is None else -2
        degrees = range(lo, 5)
        for ell in degrees:
            for m in degrees:
                f = sampler.homogeneous(cc, ell)
                g = sampler.homogeneous(cc, m)
                results = check_scaling_identities(cc, f, g)
                pair_count += 1
                failures.extend(r for r in results if r.status != "pass")
    assert pair_count >= 200, pair_count
    assert not failures, failures[:5]
    _report(4, f"hamiltonian identities on {pair_count} pairs")


def test_criterion_5_invariance_suite():
    """50 seeded degree-delta samples per model: L_X theta = 0 and round trips."""
    sampler = SeededSampler(303)
    models = [hopf_chart(0), hopf_chart(1)] + [
        fibered_chart(0, delta) for delta in (-2, 1, 3)
    ]
    for cc in models:
        samples = [sampler.homogeneous(cc, cc.delta) for _ in range(50)]
        results = check_invariance_identities(cc, samples)
        bad = [r for r in results if r.status != "pass"]
        assert not bad, (cc.label, bad[:3])
    _report(5, "invariance and round-trip suite")


def test_criterion_6_cocycle_identities():
    """Canonical-bundle cocycle equality on the line and the 3-space instance."""
    line = projective_line_cstructure()
    results = canonical_cocycle_check(line, 0)
    assert results and all(r.status == "pass" for r in results)
    cc = hopf_chart(1)
    cs = reconstruct_cstructure(cc, hopf_sections(1))
    results = canonical_cocycle_check(cs, 1)
    assert len(results) == 12 and all(r.status == "pass" for r in results)
    _report(6, "canonical cocycle identities")


def test_criterion_7_quotient_suite():
    """Parity invariance, descent classification on 100 seeded monomials,
    dimension equalities for m <= 3, n <= 2."""
    sampler = SeededSampler(404)
    for n in (0, 1, 2):
        cc = hopf_chart(n)
        count = 34 if n < 2 else 32  # 100 monomials across the three models
        monomials = [
            sampler.monomial(cc, sampler.integer(0, 6), 6) for _ in range(count)
        ]
        results = quotient_checks(n, monomials, max_m=3)
        bad = [r for r in results if r.status != "pass"]
        assert not bad, (n, bad[:3])
    for n in (0, 1, 2):
        for m in range(4):
            assert len(monomial_basis(2 * n + 1, 2 * m)) == homogeneous_space_dim(
                2 * n + 1, 2 * m
            )
    _report(7, "quotient suite (100 monomials)")


def test_criterion_8_immersion_suite():
    """All degree-2 monomials give full rank 2n+2 at 25 seeded points each;
    a single function is rank-deficient."""
    sampler = SeededSampler(505)
    for n in (0, 1):
        cc = hopf_chart(n)
        basis = monomial_basis(2 * n + 1, 2)
        fs = [HomogeneousFunction(cc, cc.chart.coeff(p), 2) for p in basis]
        points = [sampler.point(cc) for _ in range(25)]
        rep = immersion_rank(cc, fs, points)
        assert rep.full_rank == 2 * n + 2
        assert rep.consistent(), rep.rows
        assert rep.all_full(), rep.rows
        assert all(row["f_nonzero"] for row in rep.rows)
        single = immersion_rank(cc, fs[:1], points[:3])
        assert all(row["jacobian_rank"] < 2 * n + 2 for row in single.rows)
    _report(8, "immersion rank suite")


def test_criterion_9_adjoint_suite(algebra_bundle):
    """Automorphism exactness, 20-point kappa round trips, centralizer kernel,
    character differential, embedding ranks; G2 under 120 seconds."""
    g2_elapsed = 0.0
    for name in LIE_TYPES:
        start = time.monotonic()
        rs, sc, kd, gd = algebra_bundle(name)
        sampler = SeededSampler(606)
        letters = set()
        points = [orbit_sample(sc, [])]
        for _ in range(19):
            word = sampler.word(rs, 2)
            letters.update(word)
            points.append(orbit_sample(sc, word))
        for pt in points:
            assert kappa_round_trip(kd, pt), name
            assert kd.form(pt.vector, pt.vector).is_zero(), name
        for root, t in sorted(letters)[:4]:
            m = exp_ad(sc, root, t)
            assert m.preserves_brackets(), name
            assert m.preserves_form(kd), name
        results = theta_G_checks(gd)
        assert all(r.status == "pass" for r in results), (name, results)
        assert chi_differential(kd) == GaussianRational(2), name
        emb = embedding_checks(gd, points[:6], [tangent_rank(sc, pt) for pt in points[:6]])
        assert all(r.status != "fail" for r in emb), (name, emb)
        expected_rank = len(gd.pieces[1]) + 2
        tangent = [dense_vector(sc.bracket({i: ONE}, points[0].vector), sc.dim) for i in range(sc.dim)]
        assert dense_rank(tangent) == expected_rank, name
        if name == "G2":
            g2_elapsed = time.monotonic() - start
    assert g2_elapsed < 120, f"G2 adjoint suite took {g2_elapsed:.1f}s"
    _report(9, "adjoint suite")


def test_criterion_10_determinism():
    """Two full runs with one seed serialize byte-identically."""
    config = {"command": "all", "seed": 424242, "samples": 2}
    first = run_all(dict(config)).to_json()
    second = run_all(dict(config)).to_json()
    assert first == second
    assert '"ok": true' in first
    _report(10, "byte-identical determinism")
