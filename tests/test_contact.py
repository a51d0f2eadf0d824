from fractions import Fraction

import pytest

from contactcheck import contact
from contactcheck.contact import (
    CStructureData,
    ContactChart,
    HomogeneousFunction,
    SectionMap,
    canonical_cocycle_check,
    check_invariance_identities,
    check_scaling_identities,
    cstructure_from_charts,
    degree_of,
    euler_field,
    evaluation_pairing,
    fibered_chart,
    hamiltonian_field,
    homogeneous_space_dim,
    hopf_chart,
    hopf_sections,
    immersion_rank,
    monomial_basis,
    pairing_with_theta,
    poisson_function,
    projective_line_cstructure,
    quotient_checks,
    reconstruct_cstructure,
    scaling_degree,
    solved_euler_field,
    verify_axioms,
)
from contactcheck.forms import ChartSpace, PolyForm, PolyVectorField, exterior_derivative, lie_derivative
from contactcheck.poly import MultiPoly
from contactcheck.sampling import SeededSampler
from contactcheck.scalars import GaussianRational
from conftest import gq
from faults import BAD_HOPF_LABEL, corrupted_hopf_chart
from oracles import dense_rank


def all_pass(results):
    bad = [r for r in results if r.status == "fail"]
    assert not bad, bad
    return True


# -- axioms ------------------------------------------------------------------------


def test_fibered_axioms_delta_3():
    cc = fibered_chart(0, 3)
    sampler = SeededSampler(1)
    all_pass(verify_axioms(cc, [sampler.point(cc) for _ in range(4)]))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_hopf_axioms(n):
    cc = hopf_chart(n)
    assert cc.delta == 2
    sampler = SeededSampler(2)
    all_pass(verify_axioms(cc, [sampler.point(cc) for _ in range(3)]))


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        fibered_chart(0, 0)
    chart = ChartSpace(["z"], "lam")
    theta = PolyForm(chart, 1, {(0,): chart.coeff_const(1)})
    with pytest.raises(ValueError):
        ContactChart(chart, theta, 0, {"z": 0, "lam": 1})


def test_inhomogeneous_theta_rejected():
    chart = ChartSpace(["z"], "lam")
    theta = PolyForm(chart, 1, {(0,): chart.coeff_const(1) + chart.coeff_var("lam")})
    with pytest.raises(ValueError):
        ContactChart(chart, theta, 1, {"z": 0, "lam": 1})


# -- Euler fields --------------------------------------------------------------------


def test_euler_field_fibered():
    cc = fibered_chart(0, 3)
    xi = euler_field(cc)
    expected = PolyVectorField(
        cc.chart, {1: cc.chart.coeff_var("lam").scale(GaussianRational(Fraction(-1, 3)))}
    )
    assert xi == expected


@pytest.mark.parametrize("n", [0, 1])
def test_euler_field_hopf(n):
    cc = hopf_chart(n)
    xi = euler_field(cc)
    half = GaussianRational(Fraction(-1, 2))
    expected = PolyVectorField(
        cc.chart,
        {i: cc.chart.coeff_var(f"z{i}").scale(half) for i in range(2 * n + 2)},
    )
    assert xi == expected


def test_euler_field_properties():
    for cc in (hopf_chart(0), fibered_chart(1, 2), fibered_chart(0, -2)):
        xi = euler_field(cc)
        # theta(Xi) = 0 and iota_Xi dtheta = -theta
        assert pairing_with_theta(cc, xi).is_zero()
        from contactcheck.forms import interior_product

        assert interior_product(xi, exterior_derivative(cc.theta)) == -cc.theta
        # scaling invariance of the components
        from contactcheck.contact import field_scaling_degrees

        degrees = field_scaling_degrees(cc, xi)
        assert all(v == [0] for v in degrees.values())


# -- Hamiltonian fields -----------------------------------------------------------------


def test_hamiltonian_examples_hopf0():
    cc = hopf_chart(0)
    z0, z1 = cc.chart.coeff_var("z0"), cc.chart.coeff_var("z1")
    assert hamiltonian_field(cc, z0 * z0) == PolyVectorField(cc.chart, {1: z0})
    half = GaussianRational(Fraction(1, 2))
    expected = PolyVectorField(cc.chart, {0: z0.scale(-half), 1: z1.scale(half)})
    assert hamiltonian_field(cc, z0 * z1) == expected


def test_hamiltonian_fibered_closed_form():
    # f = lam^delta g(z): X = -(lam g'/delta) dlam + g dz
    cc = fibered_chart(0, 3)
    chart = cc.chart
    g = MultiPoly.variable("z0") ** 2
    lam = chart.coeff_var("lam")
    f = lam**3 * chart.coeff(g)
    X = hamiltonian_field(cc, f)
    expected = PolyVectorField(
        chart,
        {
            0: chart.coeff(g),
            1: lam * chart.coeff(g.diff("z0").scale(Fraction(-1, 3))),
        },
    )
    assert X == expected


def test_hamiltonian_defining_equation_randomized():
    sampler = SeededSampler(7)
    for cc in (hopf_chart(1), fibered_chart(0, -2), fibered_chart(1, 3)):
        lo = 0 if cc.chart.fiber_var is None else -2
        for ell in range(lo, 4):
            f = sampler.homogeneous(cc, ell)
            X = hamiltonian_field(cc, f.coeff)
            from contactcheck.forms import interior_product

            df = exterior_derivative(PolyForm.function(cc.chart, f.coeff))
            assert interior_product(X, exterior_derivative(cc.theta)) == -df


def test_hamiltonian_linearity_and_i_scaling():
    cc = hopf_chart(0)
    z0, z1 = cc.chart.coeff_var("z0"), cc.chart.coeff_var("z1")
    f, g = z0 * z0, z0 * z1
    Xf, Xg = hamiltonian_field(cc, f), hamiltonian_field(cc, g)
    assert hamiltonian_field(cc, f + g) == Xf + Xg
    i = gq(0, 1)
    assert hamiltonian_field(cc, f.scale(i)) == Xf.scale(i)


# -- homogeneity degrees -------------------------------------------------------------------


def test_degree_examples():
    h = hopf_chart(0)
    z0, z1 = h.chart.coeff_var("z0"), h.chart.coeff_var("z1")
    assert degree_of(h, z0 * z1) == 2
    f = fibered_chart(0, 3)
    lam3 = f.chart.coeff_var("lam") ** 3
    z = MultiPoly.variable("z0")
    assert degree_of(f, lam3 * f.chart.coeff(z * z)) == 3
    # inhomogeneous
    assert degree_of(h, z0 + z0 * z0) is None
    assert scaling_degree(h, z0 + z0 * z0) is None


def test_degree_euler_vs_scaling_agree():
    sampler = SeededSampler(13)
    for cc in (hopf_chart(0), hopf_chart(1), fibered_chart(0, 2), fibered_chart(0, -1)):
        lo = 0 if cc.chart.fiber_var is None else -2
        for ell in range(lo, 5):
            f = sampler.homogeneous(cc, ell)
            assert degree_of(cc, f.coeff) == scaling_degree(cc, f.coeff) == ell


# -- identity suites -----------------------------------------------------------------------


def test_scaling_suite_spec_pair():
    cc = hopf_chart(0)
    z0, z1 = cc.chart.coeff_var("z0"), cc.chart.coeff_var("z1")
    f = HomogeneousFunction(cc, z0 * z0, 2)
    g = HomogeneousFunction(cc, z1 * z1, 2)
    all_pass(check_scaling_identities(cc, f, g))
    # frozen expected values for this pair
    assert poisson_function(cc, z0 * z0, z1 * z1) == z0 * z1 + z0 * z1
    bracket = hamiltonian_field(cc, z0 * z0).bracket(hamiltonian_field(cc, z1 * z1))
    assert bracket == PolyVectorField(cc.chart, {0: -z0, 1: z1})


def test_scaling_suite_equal_functions():
    cc = hopf_chart(0)
    z0 = cc.chart.coeff_var("z0")
    f = HomogeneousFunction(cc, z0 * z0, 2)
    all_pass(check_scaling_identities(cc, f, f))
    assert poisson_function(cc, f.coeff, f.coeff).is_zero()


def test_quadratic_bracket_algebra_dimension():
    """Brackets of the three quadratic fields on C^2 close on a 3-dim algebra."""
    cc = hopf_chart(0)
    z0, z1 = cc.chart.coeff_var("z0"), cc.chart.coeff_var("z1")
    quads = [z0 * z0, z0 * z1, z1 * z1]
    fields = [hamiltonian_field(cc, q) for q in quads]

    def flat(X):
        out = []
        for i in range(2):
            comp = X.components.get(i, cc.chart.coeff_zero())
            poly = cc.chart.base_part(comp).with_vars(("z0", "z1"))
            out.extend([poly.terms.get((1, 0), gq(0)), poly.terms.get((0, 1), gq(0))])
        return out

    basis = [flat(X) for X in fields]
    assert dense_rank(basis) == 3
    for a in fields:
        for b in fields:
            assert dense_rank(basis + [flat(a.bracket(b))]) == 3


def test_invariance_suite():
    sampler = SeededSampler(3)
    for cc in (hopf_chart(0), fibered_chart(0, 3), fibered_chart(1, -2)):
        samples = [sampler.homogeneous(cc, cc.delta) for _ in range(5)]
        all_pass(check_invariance_identities(cc, samples))


def test_invariance_fails_off_degree():
    """ell != delta: L_{X_f} theta = ((ell - delta)/delta) df, nonzero for nonconstant f."""
    cc = hopf_chart(0)
    z0 = cc.chart.coeff_var("z0")
    f = z0 * z0 * z0  # degree 3, delta 2
    X = hamiltonian_field(cc, f)
    lie = lie_derivative(X, cc.theta)
    df = exterior_derivative(PolyForm.function(cc.chart, f))
    assert lie == df.scale(GaussianRational(Fraction(3 - 2, 2)))
    assert not lie.is_zero()


def test_zero_function_trivially_invariant():
    cc = hopf_chart(0)
    X = hamiltonian_field(cc, cc.chart.coeff_zero())
    assert X.is_zero()
    assert lie_derivative(X, cc.theta).is_zero()


def test_poisson_jacobi_randomized():
    """Jacobi for {f, g} := dtheta(X'_f, X'_g) on seeded triples."""
    sampler = SeededSampler(17)
    for cc in (hopf_chart(0), fibered_chart(0, 2)):
        lo = 0 if cc.chart.fiber_var is None else -1
        for _ in range(4):
            f = sampler.homogeneous(cc, lo + 2).coeff
            g = sampler.homogeneous(cc, lo + 1).coeff
            h = sampler.homogeneous(cc, lo + 3).coeff
            total = (
                poisson_function(cc, poisson_function(cc, f, g), h)
                + poisson_function(cc, poisson_function(cc, g, h), f)
                + poisson_function(cc, poisson_function(cc, h, f), g)
            )
            assert total.is_zero()


# -- sections and cocycles ------------------------------------------------------------------


def test_projective_line_cocycle():
    cs = projective_line_cstructure()
    u1 = MultiPoly.variable("u1")
    assert cs.factors[(0, 1)] == -(u1 * u1)
    all_pass(canonical_cocycle_check(cs, 0))


def test_hopf_sections_give_contact_forms():
    cc = hopf_chart(1)
    cs = reconstruct_cstructure(cc, hopf_sections(1))
    src = cs.gammas[0].chart
    expected = (
        PolyForm.d_var(src, "u2")
        + PolyForm.d_var(src, "u3").scale(src.coeff_var("u1"))
        - PolyForm.d_var(src, "u1").scale(src.coeff_var("u3"))
    )
    assert cs.gammas[0] == expected
    # gauge ratio between charts 0 and 1 is the coordinate u1, factor its square
    assert cs.factors[(0, 1)] == cs.gauges[(0, 1)] ** 2
    all_pass(canonical_cocycle_check(cs, 1))


def test_fibered_unit_section():
    cc = fibered_chart(0, 2)
    src = ChartSpace(["z0"])
    section = SectionMap(
        "S", src, {"z0": src.coeff_var("z0"), "lam": src.coeff_const(1)}, unit_var="lam"
    )
    cs = reconstruct_cstructure(cc, [section])
    assert cs.gammas[0] == PolyForm.d_var(src, "z0")


def test_constant_gauge_sections():
    cc = fibered_chart(0, 3)
    src = ChartSpace(["z0"])
    s1 = SectionMap("S1", src, {"z0": src.coeff_var("z0"), "lam": src.coeff_const(2)}, "lam")
    s2 = SectionMap("S2", src, {"z0": src.coeff_var("z0"), "lam": src.coeff_const(1)}, "lam")
    cs = reconstruct_cstructure(cc, [s1, s2])
    assert cs.gauges[(0, 1)] == MultiPoly.const(2)
    assert cs.factors[(0, 1)] == MultiPoly.const(8)  # c^delta


def test_bad_section_rejected():
    cc = hopf_chart(0)
    src = ChartSpace(["u1"])
    bad = SectionMap(
        "B", src, {"z0": src.coeff_const(1), "z1": src.coeff_var("u1") + src.coeff_const(1)}, "z0"
    )
    with pytest.raises(ValueError):
        reconstruct_cstructure(cc, [bad])


# -- quotient ---------------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1])
def test_quotient_suite(n):
    sampler = SeededSampler(29)
    cc = hopf_chart(n)
    monomials = [sampler.monomial(cc, d, 6) for d in (0, 1, 2, 3, 4, 5, 6)]
    all_pass(quotient_checks(n, monomials))


def test_quotient_descent_classification():
    cc = hopf_chart(0)
    z0, z1 = cc.chart.coeff_var("z0"), cc.chart.coeff_var("z1")
    flip = {name: -MultiPoly.variable(name) for name in cc.chart.base_vars}
    assert (z0 * z1).substitute(flip) == z0 * z1  # even descends
    assert (z0).substitute(flip) == -z0  # odd does not
    assert len(monomial_basis(1, 2)) == 3  # even quadratics on C^2


# -- immersion ---------------------------------------------------------------------------------


def test_immersion_rank_quadratics_point():
    cc = hopf_chart(0)
    basis = monomial_basis(1, 2)
    fs = [HomogeneousFunction(cc, cc.chart.coeff(p), 2) for p in basis]
    rep = immersion_rank(cc, fs, [{"z0": gq(1), "z1": gq(1)}])
    assert rep.rows[0]["jacobian_rank"] == 2
    assert rep.rows[0]["span_rank"] == 2
    assert rep.rows[0]["f_nonzero"]
    assert rep.all_full() and rep.consistent()


def test_immersion_single_function_deficient():
    cc = hopf_chart(0)
    z0 = cc.chart.coeff_var("z0")
    fs = [HomogeneousFunction(cc, z0 * z0, 2)]
    rep = immersion_rank(cc, fs, [{"z0": gq(1), "z1": gq(1)}])
    assert rep.rows[0]["jacobian_rank"] == 1
    assert not rep.all_full()


def test_immersion_linear_coordinates():
    cc = hopf_chart(0)
    fs = [
        HomogeneousFunction(cc, cc.chart.coeff_var("z0"), 1),
        HomogeneousFunction(cc, cc.chart.coeff_var("z1"), 1),
    ]
    rep = immersion_rank(cc, fs, [{"z0": gq(2), "z1": gq(-3)}])
    assert rep.rows[0]["jacobian_rank"] == 2


def test_immersion_validations():
    cc = hopf_chart(0)
    z0 = cc.chart.coeff_var("z0")
    with pytest.raises(ValueError):
        immersion_rank(cc, [], [])
    with pytest.raises(ValueError):
        immersion_rank(
            cc,
            [HomogeneousFunction(cc, cc.chart.coeff_const(1), 0)],
            [],
        )
    with pytest.raises(ValueError):
        immersion_rank(
            cc,
            [HomogeneousFunction(cc, z0, 1)],
            [{"z0": gq(0), "z1": gq(0)}],
        )
    fib = fibered_chart(0, 1)
    lam = fib.chart.coeff_var("lam")
    with pytest.raises(ValueError):
        immersion_rank(
            fib,
            [HomogeneousFunction(fib, lam, 1)],
            [{"z0": gq(1), "lam": gq(0)}],
        )


# -- section spaces ------------------------------------------------------------------------------


def test_homogeneous_space_dims():
    assert homogeneous_space_dim(1, 2) == 3
    assert homogeneous_space_dim(3, 1) == 4
    assert homogeneous_space_dim(3, 2) == 10
    assert len(monomial_basis(3, 2)) == 10
    with pytest.raises(ValueError):
        homogeneous_space_dim(0, 2)
    with pytest.raises(ValueError):
        homogeneous_space_dim(2, -1)


def test_evaluation_pairing_matches_evaluate():
    basis = monomial_basis(2, 3)
    sampler = SeededSampler(31)
    point = {f"z{i}": sampler.gaussian() for i in range(3)}
    for phi in basis[:5]:
        assert evaluation_pairing(phi, point) == phi.evaluate(point)


def test_section_space_injectivity_on_samples():
    """A nonzero section has a nonzero value at some small rational point."""
    from itertools import product

    for phi_terms in [{(2, 0): gq(1), (0, 2): gq(-1)}, {(1, 1): gq(0, 1)}]:
        phi = MultiPoly(("z0", "z1"), phi_terms)
        found = False
        for a, b in product(range(-2, 3), repeat=2):
            if not phi.evaluate({"z0": gq(a), "z1": gq(b)}).is_zero():
                found = True
                break
        assert found


# -- symplectic duality ------------------------------------------------------------------------


def test_dual_field_lie_derivative_of_symplectic():
    """For any 1-form w, the dtheta-dual field Z (iota_Z dtheta = -w)
    satisfies L_Z dtheta = -dw exactly."""
    from contactcheck.contact import _solve_contraction
    from contactcheck.forms import exterior_derivative as d

    sampler = SeededSampler(43)
    cc = hopf_chart(1)
    for _ in range(4):
        terms = {}
        for i in range(4):
            terms[(i,)] = sampler.homogeneous(cc, sampler.integer(0, 3)).coeff
        omega = PolyForm(cc.chart, 1, terms)
        dual = _solve_contraction(cc, -omega)
        assert lie_derivative(dual, d(cc.theta)) == -d(omega)


def test_fibered_top_power_exact_coefficient():
    """(d theta)^(n+1) = (n+1)! * delta * lam^((n+1)delta - 1) * (dlam wedge volume)
    up to the orientation sign of the sorted coordinate order."""
    import math

    for n, delta in [(0, 3), (0, -2), (1, 2), (1, -1), (2, 1)]:
        cc = fibered_chart(n, delta)
        top = exterior_derivative(cc.theta).wedge_power(n + 1)
        key = tuple(range(cc.dim))
        assert set(top.terms) == {key}
        coeff = top.terms[key]
        expected_power = (n + 1) * delta - 1
        ((expo, value),) = coeff.terms.items()
        assert expo == (0,) * (cc.dim - 1) + (expected_power,)
        assert value.norm_sq() == (math.factorial(n + 1) * abs(delta)) ** 2


def test_single_chart_cocycle_vacuous():
    src = ChartSpace(["u1"])
    gamma = PolyForm.d_var(src, "u1")
    from contactcheck.contact import cstructure_from_charts

    cs = cstructure_from_charts(["only"], [gamma], {}, 0)
    assert canonical_cocycle_check(cs, 0) == []


def test_degenerate_dtheta_is_rejected_by_name():
    """dtheta = 2 z0 dz0 ^ dz1 degenerates on z0 = 0: no Hamiltonian field exists."""
    chart = ChartSpace(["z0", "z1"])
    z0, z1 = chart.coeff_var("z0"), chart.coeff_var("z1")
    theta = PolyForm.d_var(chart, "z1").scale(z0 * z0)
    cc = ContactChart(chart, theta, 3, {"z0": 1, "z1": 1}, label="degenerate")
    for f in (z0 * z0, z1 * z1):
        with pytest.raises(ValueError, match="not invertible over the Laurent ring on degenerate"):
            hamiltonian_field(cc, f)


def test_non_unit_first_pivot_is_passed_over():
    """dtheta = z0 dz0^dz1 + dz0^dz2 - dz1^dz3 has Pfaffian 1; the first pivot z0 is no unit."""
    from contactcheck.forms import interior_product

    chart = ChartSpace(["z0", "z1", "z2", "z3"])
    z0, z1 = chart.coeff_var("z0"), chart.coeff_var("z1")
    theta = (
        PolyForm.d_var(chart, "z1").scale(z0 * z0 * Fraction(1, 2))
        + PolyForm.d_var(chart, "z2").scale(z0)
        - PolyForm.d_var(chart, "z3").scale(z1)
    )
    cc = ContactChart(chart, theta, 2, {"z0": 1, "z1": 0, "z2": 1, "z3": 2}, label="unit-pivot")
    X = hamiltonian_field(cc, z1)
    assert str(X) == "(-1) d/dz3"
    df = exterior_derivative(PolyForm.function(chart, z1))
    assert interior_product(X, exterior_derivative(theta)) == -df


@pytest.mark.parametrize("cc", [fibered_chart(1, 2), hopf_chart(1)], ids=["fibered", "hopf"])
def test_hamiltonian_field_prints_in_chart_variable_order(cc):
    z0, z1, z2 = (cc.chart.coeff_var(f"z{i}") for i in range(3))
    X = hamiltonian_field(cc, z2 * z1 * z0)
    assert str(X) == str(hamiltonian_field(cc, z0 * z1 * z2))
    assert "z0*z1" in str(X) and "z1*z0" not in str(X)


# -- fault injection: each identity must be able to fail --------------------------------------


def _failed(results):
    return {r.check_id: r.witness for r in results if r.status == "fail"}


def test_corrupted_theta_fails_axiom_and_lemma_suites():
    """Doubling one theta coefficient of hopf(1) fails checks instead of raising."""
    cc = corrupted_hopf_chart(1)
    sampler = SeededSampler(3)
    assert _failed(verify_axioms(cc, [sampler.point(cc)])) == {
        f"{BAD_HOPF_LABEL}:vertical-annihilation": "z0*z2"
    }
    z0, z1, z2, z3 = (cc.chart.coeff_var(f"z{i}") for i in range(4))
    pairs = [(z0 + z2, 1, z1 * z3, 2), (z0 * z0 + z1 * z2, 2, z3, 1), (z0 * z0 * z0 + z1 * z2 * z3, 3, z0, 1)]
    for f, ell, g, m in pairs:
        failed = _failed(
            check_scaling_identities(
                cc, HomogeneousFunction(cc, f, ell), HomogeneousFunction(cc, g, m)
            )
        )
        prefix = f"{BAD_HOPF_LABEL}:l{ell}:m{m}"
        assert set(failed) == {f"{prefix}:theta-of-hamiltonian", f"{prefix}:euler-degree-agrees"}
        assert failed[f"{prefix}:theta-of-hamiltonian"] != "0"
        assert failed[f"{prefix}:euler-degree-agrees"] == f"euler=None scaling={ell}"
    samples = [HomogeneousFunction(cc, q, 2) for q in (z0 * z0 + z1 * z2, z0 * z1 + z2 * z3)]
    failed = _failed(check_invariance_identities(cc, samples))
    assert set(failed) == {
        f"{BAD_HOPF_LABEL}:sample{idx}:{name}"
        for idx in range(2)
        for name in ("theta-invariance", "moment-recovers-f", "moment-degree", "round-trip")
    }
    # euler_field itself still refuses a solve that misses the closed form
    with pytest.raises(ArithmeticError, match="euler field solve disagrees"):
        euler_field(cc)


@pytest.mark.parametrize("corrupted_first", [False, True], ids=["good-first", "corrupted-first"])
def test_euler_solve_is_cached_per_chart_not_per_label(corrupted_first):
    """A corrupted theta under the good chart's label keeps its own solved field."""
    good = hopf_chart(1)
    bad = corrupted_hopf_chart(1)
    bad = ContactChart(bad.chart, bad.theta, bad.delta, bad.weights, label=good.label)
    z0, z1 = good.chart.coeff_var("z0"), good.chart.coeff_var("z1")
    f = z0 * z1
    order = [(bad, None), (good, 2)] if corrupted_first else [(good, 2), (bad, None)]
    for cc, expected in order + order:
        assert degree_of(cc, f) == expected, cc
    assert solved_euler_field(good) is solved_euler_field(good)
    assert solved_euler_field(bad) != solved_euler_field(good)
    assert str(solved_euler_field(good)) == str(euler_field(good))


def test_corrupted_transition_fails_c2():
    cs = reconstruct_cstructure(hopf_chart(1), hopf_sections(1))
    maps = dict(cs.transition_maps)
    maps[(0, 1)] = dict(maps[(0, 1)], u0=maps[(0, 1)]["u0"] * 2)
    with pytest.raises(ValueError, match=r"^\(C\.2\) fails for pair \(V0, V1\)$"):
        cstructure_from_charts(cs.charts, cs.gammas, maps, 1)


def test_c2_rejects_a_factor_with_a_pole_on_the_overlap():
    """gamma1 = (1 + u0) du0 forces f_01 = -u1^3 / (u1 + 1), which is not Laurent."""
    c0, c1 = ChartSpace(["u1"]), ChartSpace(["u0"])
    gamma0 = PolyForm.d_var(c0, "u1")
    gamma1 = PolyForm.d_var(c1, "u0").scale(c1.coeff_var("u0") + c1.coeff_const(1))
    u0, u1 = MultiPoly.variable("u0"), MultiPoly.variable("u1")
    maps = {
        (0, 1): {"u0": u1**-1},
        (1, 0): {"u1": u0**-1},
    }
    with pytest.raises(ValueError, match=r"^\(C\.2\) fails for pair \(V0, V1\)$"):
        cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps, 0)


def test_c2_rejects_a_chart_form_that_depends_on_the_fiber():
    """gamma0 = lam du1 is no form on the base; it once gave the factor f_01 = 0."""
    c0, c1 = ChartSpace(["u1"], "lam"), ChartSpace(["u0"])
    gamma0 = PolyForm.d_var(c0, "u1").scale(c0.coeff_var("lam"))
    gamma1 = PolyForm.d_var(c1, "u0")
    maps = {(0, 1): {"u0": MultiPoly.variable("u1") ** -1}}
    with pytest.raises(ValueError, match="depends on the fiber variable lam"):
        cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps, 0)


def test_gauge_with_a_pole_on_the_overlap_is_rejected(monkeypatch):
    """u0 -> u1 + 1 keeps (C.2) (f_01 = -1) but makes the gauge 1 / (u1 + 1)."""
    cc, sections = hopf_chart(0), hopf_sections(0)
    section_transition = contact._section_transition

    def shifted(cc, sections, i, j):
        if (i, j) == (0, 1):
            return {"u0": MultiPoly.variable("u1") + 1}
        return section_transition(cc, sections, i, j)

    monkeypatch.setattr(contact, "_section_transition", shifted)
    with pytest.raises(ValueError, match="^sections are not related by a scalar gauge$"):
        reconstruct_cstructure(cc, sections)


def test_reconstruct_reports_c2_through_one_path(monkeypatch):
    cc, sections = hopf_chart(1), hopf_sections(1)
    section_transition = contact._section_transition

    def doubled_u0(cc, sections, i, j):
        trans = section_transition(cc, sections, i, j)
        return dict(trans, u0=trans["u0"] * 2) if (i, j) == (0, 1) else trans

    monkeypatch.setattr(contact, "_section_transition", doubled_u0)
    with pytest.raises(ValueError, match=r"^\(C\.2\) fails for pair \(V0, V1\)$"):
        reconstruct_cstructure(cc, sections)
    monkeypatch.undo()
    gauge_ratio = contact._gauge_ratio

    def doubled_gauge(cc, sec_i, sec_j, trans):
        g = gauge_ratio(cc, sec_i, sec_j, trans)
        return g * 2 if (sec_i.label, sec_j.label) == ("V1", "V2") else g

    monkeypatch.setattr(contact, "_gauge_ratio", doubled_gauge)
    with pytest.raises(ValueError, match=r"^\(C\.2\) fails for pair \(V1, V2\)$"):
        reconstruct_cstructure(cc, sections)


def test_corrupted_factor_fails_cocycle():
    cs = reconstruct_cstructure(hopf_chart(1), hopf_sections(1))
    factors = dict(cs.factors)
    factors[(0, 1)] = factors[(0, 1)] * 2
    bad = CStructureData(cs.charts, cs.gammas, cs.transition_maps, factors, cs.gauges)
    assert _failed(canonical_cocycle_check(bad, 1)) == {"cocycle:V0->V1": "lhs -2 != rhs -8"}


#: ``quotient_checks`` failures on hopf theta times z0 (degree 3, odd under z -> -z).
ODD_THETA_FAILURES = {
    0: {
        "hopf(n=0):descended-form-degree-1": "scaling components [3]",
        "hopf(n=0):theta-sign-invariance": "(2*z0*z1) dz0 + (-2*z0^2) dz1",
    },
    1: {
        "hopf(n=1):descended-form-degree-1": "scaling components [3]",
        "hopf(n=1):theta-sign-invariance": (
            "(2*z0*z2) dz0 + (2*z0*z3) dz1 + (-2*z0^2) dz2 + (-2*z0*z1) dz3"
        ),
    },
}


@pytest.mark.parametrize("n", [0, 1])
def test_odd_theta_fails_sign_invariance_with_its_residual(monkeypatch, n):
    """z0 * theta is odd under z -> -z: the witness is ``flipped - theta = -2 z0 theta``."""
    hopf = contact.hopf_chart

    def odd_chart(n):
        cc = hopf(n)
        theta = cc.theta.scale(cc.chart.coeff_var("z0"))
        return ContactChart(cc.chart, theta, 3, cc.weights, label=cc.label)

    monkeypatch.setattr(contact, "hopf_chart", odd_chart)
    assert _failed(quotient_checks(n, [])) == ODD_THETA_FAILURES[n]
