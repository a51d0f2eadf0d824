import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactcheck import contact, forms
from contactcheck.contact import (
    CStructureData,
    ContactChart,
    HomogeneousFunction,
    canonical_cocycle_check,
    check_invariance_identities,
    check_scaling_identities,
    cstructure_from_charts,
    degree_of,
    euler_field,
    fibered_chart,
    hamiltonian_field,
    homogeneous_space_dim,
    hopf_chart,
    hopf_sections,
    immersion_rank,
    monomial_basis,
    pairing_with_theta,
    poisson_function,
    quotient_checks,
    reconstruct_cstructure,
    scaling_degree,
    solved_euler_field,
    verify_axioms,
)
from contactcheck.forms import (
    ChartMap,
    ChartSpace,
    PolyForm,
    PolyVectorField,
    exterior_derivative,
    lie_derivative,
)
from contactcheck.poly import MultiPoly
from contactcheck.sampling import SeededSampler
from contactcheck.scalars import GaussianRational, ONE
from conftest import gq
from faults import BAD_HOPF_LABEL, corrupted_hopf_chart, exact_shifted_hopf_chart
from oracles import (
    dense_rank,
    naive_contraction,
    naive_gauge,
    naive_poly,
    naive_poly_diff,
    naive_poly_mul,
    naive_scaling_degrees,
)


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


def test_inhomogeneous_theta_is_rejected_with_its_degrees():
    """The constructor names the t-degrees it found: dz0 adds degree 1 to hopf's 2."""
    cc = hopf_chart(1)
    theta = cc.theta + PolyForm.d_var(cc.chart, "z0")
    with pytest.raises(
        ValueError, match=r"^theta is not weight-homogeneous of degree 2: components \[1, 2\]$"
    ):
        ContactChart(cc.chart, theta, 2, cc.weights)
    with pytest.raises(ValueError, match=r"of degree 2: components \[\]$"):
        ContactChart(cc.chart, PolyForm.zero(cc.chart, 1), 2, cc.weights)


@st.composite
def weighted_fields(draw):
    """A chart (z0, z1; lam) with weights drawn from -1..2 (lam's nonzero), theta
    = dlam of degree w_lam, and a field with Laurent components (lam^-2..lam^2)."""
    weights = {"z0": draw(st.integers(-1, 2)), "z1": draw(st.integers(-1, 2)), "lam": draw(st.integers(1, 2))}
    chart = ChartSpace(["z0", "z1"], "lam")
    cc = ContactChart(chart, PolyForm.d_var(chart, "lam"), weights["lam"], weights)
    components = {}
    for idx in draw(st.sets(st.integers(0, 2), max_size=3)):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            expo = (draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(-2, 2)))
            terms[expo] = gq(draw(st.integers(-3, 3)), draw(st.integers(-1, 1)))
        components[idx] = MultiPoly(chart.all_vars, terms)
    return cc, PolyVectorField(chart, components)


@given(weighted_fields())
def test_field_scaling_degrees_match_the_substitution_oracle(case):
    """Component i lists the t-degrees of X_i(t^w x), each shifted by -w_i."""
    from contactcheck.contact import field_scaling_degrees

    cc, field = case
    want = {
        idx: sorted(d - cc.weights[cc.chart.all_vars[idx]] for d in naive_scaling_degrees(coeff, cc.weights))
        for idx, coeff in field.components.items()
    }
    assert field_scaling_degrees(cc, field) == want


# -- Hamiltonian fields -----------------------------------------------------------------


def test_hamiltonian_examples_hopf0():
    cc = hopf_chart(0)
    z0, z1 = cc.chart.coeff_var("z0"), cc.chart.coeff_var("z1")
    assert hamiltonian_field(cc, z0 * z0) == PolyVectorField(cc.chart, {1: z0})
    half = GaussianRational(Fraction(1, 2))
    expected = PolyVectorField(cc.chart, {0: z0.scale(-half), 1: z1.scale(half)})
    assert hamiltonian_field(cc, z0 * z1) == expected


@pytest.mark.parametrize(
    "entry",
    [
        lambda cc, f: hamiltonian_field(cc, f),
        lambda cc, f: HomogeneousFunction(cc, f, 2),
        lambda cc, f: PolyForm.function(cc.chart, f),
        lambda cc, f: exterior_derivative(PolyForm(cc.chart, 1, {(0,): f})),
        lambda cc, f: PolyVectorField(cc.chart, {0: f}),
    ],
    ids=["hamiltonian_field", "HomogeneousFunction", "PolyForm.function", "PolyForm", "PolyVectorField"],
)
def test_a_coefficient_not_spelled_over_its_chart_is_rejected_where_it_enters(entry):
    """z0^2 over (z0,) once failed later, in d/dz1, with "unknown variable 'z1'"."""
    cc = hopf_chart(0)
    with pytest.raises(ValueError, match=r"not over the chart ChartSpace\(\('z0', 'z1'\)"):
        entry(cc, MultiPoly.variable("z0") ** 2)


@pytest.mark.parametrize(
    "make, args",
    [(hopf_chart, (1,)), (fibered_chart, (1, 3)), (fibered_chart, (1, -2)), (fibered_chart, (2, -1))],
    ids=["hopf1", "fibered1,3", "fibered1,-2", "fibered2,-1"],
)
def test_hamiltonian_field_against_the_oracle_contraction(make, args):
    """iota_X dtheta = -df, read through the oracles: ``dtheta(X, d/dx_j)`` is
    the naive contraction, and ``-df/dx_j`` the naive partial, for every j."""
    cc = make(*args)
    chart = cc.chart
    one = chart.coeff_const(1)
    units = [PolyVectorField(chart, {j: one}) for j in range(chart.dim)]
    minus_one = {(): GaussianRational(-1)}
    sampler = SeededSampler(sum(args) + 5)
    lo = -2 if chart.fiber_var else 0
    functions = [sampler.homogeneous(cc, ell, terms=3).coeff for ell in range(lo, 4)]
    functions.append(chart.coeff_zero())
    if chart.fiber_var:
        assert any(e[-1] < 0 for f in functions for e in f.terms)
        # The pieces of d(z1 * lam^delta) cancel in one component of X.
        functions.append(chart.coeff_var("z1") * chart.coeff_var("lam") ** cc.delta)
    for f in functions:
        X = hamiltonian_field(cc, f)
        for j, name in enumerate(chart.all_vars):
            lhs = naive_poly(naive_contraction(cc.dtheta, [X, units[j]]))
            assert lhs == naive_poly_mul(minus_one, naive_poly_diff(naive_poly(f), name)), (f, j)


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
            poly = cc.chart.base_part(comp)
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
    cs = reconstruct_cstructure(hopf_chart(0), hopf_sections(0))
    u1 = MultiPoly.variable("u1")
    assert cs.factors[(0, 1)] == u1 * u1
    all_pass(canonical_cocycle_check(cs, 0))


def test_cocycle_of_a_transition_with_no_unit_jacobian_entry_fails_with_a_witness():
    """x -> u + u^2 has Jacobian 1 + 2u: the identity fails, and says where."""
    cu, cx = ChartSpace(["u"]), ChartSpace(["x"])
    u = cu.coeff_var("u")
    cs = CStructureData(
        ["V0", "V1"],
        [PolyForm.d_var(cu, "u"), PolyForm.d_var(cx, "x")],
        {(0, 1): ChartMap(cu, cx, {"x": u + u * u})},
        {(0, 1): cu.coeff_const(1)},
    )
    assert _failed(canonical_cocycle_check(cs, 0)) == {"cocycle:V0->V1": "lhs 1 != rhs 2*u + 1"}


def test_a_transition_that_is_not_a_chart_map_between_its_charts_is_rejected():
    """``transition_maps[(i, j)]`` is a ``ChartMap`` from chart i to chart j: a
    bare image dict, or a map between other charts, fails at construction."""
    cu, cx = ChartSpace(["u"]), ChartSpace(["x"])
    u = cu.coeff_var("u")
    gammas = [PolyForm.d_var(cu, "u"), PolyForm.d_var(cx, "x")]
    factors = {(0, 1): cu.coeff_const(1)}
    for trans in (
        {"x": u + u * u},
        ChartMap(cx, cu, {"u": cx.coeff_var("x")}),
        ChartMap(cu, cu, {"u": u + u * u}),
    ):
        with pytest.raises(ValueError, match=r"transition_maps\[\(0, 1\)\] is not a ChartMap from V0 to V1"):
            CStructureData(["V0", "V1"], gammas, {(0, 1): trans}, factors)


def test_transition_and_factor_keys_are_checked_at_construction():
    """A pair with an index outside the charts, or a pair that has a transition
    or a factor but not both, raises ``ValueError`` naming the pair, not a bare
    ``IndexError`` or, at cocycle time, ``KeyError``."""
    cu, cx = ChartSpace(["u"]), ChartSpace(["x"])
    u = cu.coeff_var("u")
    gammas = [PolyForm.d_var(cu, "u"), PolyForm.d_var(cx, "x")]
    trans = ChartMap(cu, cx, {"x": u})
    one = cu.coeff_const(1)
    for pair in ((0, -1), (-1, 1), (0, 2), (5, 1)):
        with pytest.raises(ValueError, match=rf"transition_maps key \({pair[0]}, {pair[1]}\) names a chart outside 0\.\.1"):
            CStructureData(["V0", "V1"], gammas, {pair: trans}, {pair: one})
    for factors in ({}, {(0, 1): one, (1, 0): one}, {(1, 0): one}):
        missing = (0, 1) if (0, 1) not in factors else (1, 0)
        with pytest.raises(ValueError, match=rf"differ on the pair \({missing[0]}, {missing[1]}\)"):
            CStructureData(["V0", "V1"], gammas, {(0, 1): trans}, factors)
    cs = CStructureData(["V0", "V1"], gammas, {(0, 1): trans}, {(0, 1): one})
    assert cs.factors == {(0, 1): one}


def test_cocycle_check_rejects_an_n_that_does_not_fit_the_charts():
    """On 3-dimensional charts the top form is gamma ^ d gamma, so n = 0 or 2 has no identity to check."""
    cs = reconstruct_cstructure(hopf_chart(1), hopf_sections(1))
    for n in (0, 2):
        with pytest.raises(ValueError, match=rf"^V0: gamma \^ \(d gamma\)\^{n} is no top form on ChartSpace"):
            canonical_cocycle_check(cs, n)


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
    section = ChartMap(src, cc.chart, {"z0": src.coeff_var("z0"), "lam": src.coeff_const(1)})
    cs = reconstruct_cstructure(cc, {"S": section})
    assert cs.gammas[0] == PolyForm.d_var(src, "z0")


def test_constant_gauge_sections():
    cc = fibered_chart(0, 3)
    src = ChartSpace(["z0"])
    s1 = ChartMap(src, cc.chart, {"z0": src.coeff_var("z0"), "lam": src.coeff_const(2)})
    s2 = ChartMap(src, cc.chart, {"z0": src.coeff_var("z0"), "lam": src.coeff_const(1)})
    cs = reconstruct_cstructure(cc, {"S1": s1, "S2": s2})
    assert cs.gauges[(0, 1)] == src.coeff_const(2)
    assert cs.factors[(0, 1)] == src.coeff_const(8)  # c^delta


def test_bad_section_rejected():
    cc = hopf_chart(0)
    src = ChartSpace(["u1"])
    bad = ChartMap(src, cc.chart, {"z0": src.coeff_const(1), "z1": src.coeff_var("u1") + src.coeff_const(1)})
    with pytest.raises(ValueError, match="^B is not a section of the projection$"):
        reconstruct_cstructure(cc, {"B": bad})


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
    flip = {name: -cc.chart.coeff_var(name) for name in cc.chart.base_vars}
    assert (z0 * z1).substitute(flip) == z0 * z1  # even descends
    assert (z0).substitute(flip) == -z0  # odd does not
    assert len(monomial_basis(1, 2)) == 3  # even quadratics on C^2


# -- immersion ---------------------------------------------------------------------------------


def test_immersion_rank_quadratics_point():
    cc = hopf_chart(0)
    basis = monomial_basis(1, 2)
    fs = [HomogeneousFunction(cc, cc.chart.coeff(p), 2) for p in basis]
    (row,) = immersion_rank(cc, fs, [{"z0": gq(1), "z1": gq(1)}])
    assert row["jacobian_rank"] == 2 == cc.dim
    assert row["span_rank"] == 2
    assert row["f_nonzero"]


def test_immersion_single_function_deficient():
    cc = hopf_chart(0)
    z0 = cc.chart.coeff_var("z0")
    fs = [HomogeneousFunction(cc, z0 * z0, 2)]
    (row,) = immersion_rank(cc, fs, [{"z0": gq(1), "z1": gq(1)}])
    assert row["jacobian_rank"] == 1 < cc.dim


def test_immersion_linear_coordinates():
    cc = hopf_chart(0)
    fs = [
        HomogeneousFunction(cc, cc.chart.coeff_var("z0"), 1),
        HomogeneousFunction(cc, cc.chart.coeff_var("z1"), 1),
    ]
    (row,) = immersion_rank(cc, fs, [{"z0": gq(2), "z1": gq(-3)}])
    assert row["jacobian_rank"] == 2


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


@pytest.mark.parametrize("n_proj", [0, 1, 2, 3])
def test_monomial_basis_is_in_descending_lex_order(n_proj):
    """Each exponent vector of total m, once, largest first, with coefficient 1."""
    names = tuple(f"z{i}" for i in range(n_proj + 1))
    for m in range(5):
        vectors = itertools.product(range(m + 1), repeat=n_proj + 1)
        expected = sorted((e for e in vectors if sum(e) == m), reverse=True)
        basis = monomial_basis(n_proj, m)
        assert [p.vars for p in basis] == [names] * len(expected)
        assert [p.terms for p in basis] == [{e: ONE} for e in expected], m


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
        dual = _solve_contraction(cc, omega)
        assert lie_derivative(dual, d(cc.theta)) == -d(omega)


@pytest.mark.parametrize(
    "make, args",
    [(hopf_chart, (1,)), (hopf_chart, (2,)), (fibered_chart, (1, 3)), (fibered_chart, (2, -1))],
    ids=["hopf1", "hopf2", "fibered1,3", "fibered2,-1"],
)
def test_solved_fields_contract_dtheta_to_minus_their_targets(make, args):
    """iota_{X'_f} dtheta = -df and iota_Xi dtheta = -theta, read off the contraction."""
    from contactcheck.forms import interior_product

    cc = make(*args)
    sampler = SeededSampler(sum(args) + 11)
    degrees = range(-2 if cc.chart.fiber_var else 0, 4)
    for ell in degrees:
        f = sampler.homogeneous(cc, ell).coeff
        df = exterior_derivative(PolyForm.function(cc.chart, f))
        assert interior_product(hamiltonian_field(cc, f), cc.dtheta) == -df
    assert interior_product(solved_euler_field(cc), cc.dtheta) == -cc.theta


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
        assert value.re**2 + value.im**2 == (math.factorial(n + 1) * abs(delta)) ** 2


def test_single_chart_cocycle_vacuous():
    src = ChartSpace(["u1"])
    gamma = PolyForm.d_var(src, "u1")
    from contactcheck.contact import cstructure_from_charts

    cs = cstructure_from_charts(["only"], [gamma], {})
    assert canonical_cocycle_check(cs, 0) == []


def degenerate_chart() -> ContactChart:
    """theta = z0^2 dz1: dtheta = 2 z0 dz0 ^ dz1 has the non-unit Pfaffian 2 z0."""
    chart = ChartSpace(["z0", "z1"])
    z0 = chart.coeff_var("z0")
    theta = PolyForm.d_var(chart, "z1").scale(z0 * z0)
    return ContactChart(chart, theta, 3, {"z0": 1, "z1": 1}, label="degenerate")


def unit_pivot_chart() -> ContactChart:
    """dtheta = z0 dz0^dz1 + dz0^dz2 - dz1^dz3, Pfaffian 1, first pivot z0 no unit."""
    chart = ChartSpace(["z0", "z1", "z2", "z3"])
    z0, z1 = chart.coeff_var("z0"), chart.coeff_var("z1")
    theta = (
        PolyForm.d_var(chart, "z1").scale(z0 * z0 * Fraction(1, 2))
        + PolyForm.d_var(chart, "z2").scale(z0)
        - PolyForm.d_var(chart, "z3").scale(z1)
    )
    return ContactChart(chart, theta, 2, {"z0": 1, "z1": 0, "z2": 1, "z3": 2}, label="unit-pivot")


def test_degenerate_dtheta_is_rejected_by_name():
    """dtheta = 2 z0 dz0 ^ dz1 degenerates on z0 = 0: no Hamiltonian field exists."""
    cc = degenerate_chart()
    z0, z1 = cc.chart.coeff_var("z0"), cc.chart.coeff_var("z1")
    for f in (z0 * z0, z1 * z1):
        with pytest.raises(ValueError, match="not invertible over the Laurent ring on degenerate"):
            hamiltonian_field(cc, f)


def test_non_unit_first_pivot_is_passed_over():
    """dtheta = z0 dz0^dz1 + dz0^dz2 - dz1^dz3 has Pfaffian 1; the first pivot z0 is no unit."""
    from contactcheck.forms import interior_product

    cc = unit_pivot_chart()
    z1 = cc.chart.coeff_var("z1")
    X = hamiltonian_field(cc, z1)
    assert str(X) == "(-1) d/dz3"
    df = exterior_derivative(PolyForm.function(cc.chart, z1))
    assert interior_product(X, cc.dtheta) == -df


# -- nondegeneracy: the solver's loop decides symplectic-top-form -----------------------


def hopf_without_first_pair(n: int = 2) -> ContactChart:
    """hopf(n) with the (z0, z_{n+1}) pair of theta dropped: dtheta misses dz0 ^ dz_{n+1}."""
    cc = hopf_chart(n)
    theta = PolyForm(cc.chart, 1, {k: c for k, c in cc.theta.terms.items() if k not in ((0,), (n + 1,))})
    return ContactChart(cc.chart, theta, 2, cc.weights, label="cut")


def _top_form_result(cc):
    (result,) = [r for r in verify_axioms(cc) if r.check_id.endswith(":symplectic-top-form")]
    return result


NONDEGENERACY_CHARTS = {
    **{f"hopf{n}": (hopf_chart, (n,)) for n in range(6)},
    **{f"fibered{n},{d}": (fibered_chart, (n, d)) for n in range(3) for d in (-2, -1, 1, 2, 3)},
    "degenerate": (degenerate_chart, ()),
    "unit-pivot": (unit_pivot_chart, ()),
    "cut": (hopf_without_first_pair, ()),
}


@pytest.mark.parametrize("make, args", NONDEGENERACY_CHARTS.values(), ids=NONDEGENERACY_CHARTS.keys())
def test_symplectic_top_form_passes_exactly_when_the_solver_does(make, args):
    """The check passes iff ``hamiltonian_field`` solves on the chart, and iff
    the wedge-power top ``(dtheta)^(n+1)``, the Pfaffian times (n+1)!, has a
    unit coefficient ``c * fiber^k``.  Every chart here but ``degenerate`` has
    a unit or a zero Pfaffian, where that says: iff the top is nonzero."""
    cc = make(*args)
    passed = _top_form_result(cc).status == "pass"
    try:
        hamiltonian_field(cc, cc.chart.coeff_var(cc.chart.all_vars[0]))
        solves = True
    except ValueError:
        solves = False
    top = cc.dtheta.wedge_power(cc.dim // 2)
    top_coeff = top.terms.get(tuple(range(cc.dim)), cc.chart.coeff_zero())
    assert passed == solves == cc.chart.is_unit(top_coeff)


def test_a_dropped_pair_fails_symplectic_top_form_by_name():
    assert _top_form_result(hopf_without_first_pair(2)).witness == "no pivot on dz0, dz3"


def test_a_non_unit_pfaffian_fails_symplectic_top_form():
    """Declared: the top 2 z0 dz0 ^ dz1 is nonzero, but the Pfaffian 2 z0 is no unit."""
    cc = degenerate_chart()
    assert not cc.dtheta.wedge_power(1).is_zero()
    assert _top_form_result(cc).witness == "no unit pivot in column 0"


def test_verify_axioms_builds_no_wedge(monkeypatch):
    """No wedge product is built by the axiom suite, up to hopf(20) (42 variables)."""
    def no_wedge(self, other):
        raise AssertionError("PolyForm.wedge called")

    sampler = SeededSampler(5)
    charts = [hopf_chart(20), fibered_chart(2, -1), fibered_chart(1, 3)]
    monkeypatch.setattr(PolyForm, "wedge", no_wedge)
    for cc in charts:
        all_pass(verify_axioms(cc, [sampler.point(cc)]))


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
    maps = {pair: trans.images for pair, trans in cs.transition_maps.items()}
    maps[(0, 1)] = dict(maps[(0, 1)], u0=maps[(0, 1)]["u0"] * 2)
    with pytest.raises(ValueError, match=r"^\(C\.2\) fails for pair \(V0, V1\)$"):
        cstructure_from_charts(cs.charts, cs.gammas, maps)


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
        cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps)


def test_c2_requires_a_unit_factor():
    """gamma1 = u0^2 du0 would give f_01 = -u1^5 - u1^4, which vanishes at u1 = -1."""
    c0, c1 = ChartSpace(["u1"]), ChartSpace(["u0"])
    gamma0 = PolyForm.d_var(c0, "u1").scale(c0.coeff_var("u1") + c0.coeff_const(1))
    gamma1 = PolyForm.d_var(c1, "u0").scale(c1.coeff_var("u0") ** 2)
    maps = {(0, 1): {"u0": MultiPoly.variable("u1") ** -1}}
    with pytest.raises(ValueError, match=r"^\(C\.2\) fails for pair \(V0, V1\)$"):
        cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps)


def test_c2_accepts_a_unit_ratio_of_multi_term_forms():
    """gamma_0 = dz + (1 + x) dy and gamma_1 = dc + (1 + a) db have unit tops, and across
    a = -(1 + x) / z^2 - 1, b = y, c = 1 / z the ratio of the two two-term forms is -z^2."""
    c0, c1 = ChartSpace(["x", "y", "z"]), ChartSpace(["a", "b", "c"])
    x, y, z = (c0.coeff_var(v) for v in "xyz")
    a, b, c = (c1.coeff_var(v) for v in "abc")
    one0, one1 = c0.coeff_const(1), c1.coeff_const(1)
    gamma0 = PolyForm.d_var(c0, "z") + PolyForm.d_var(c0, "y").scale(x + one0)
    gamma1 = PolyForm.d_var(c1, "c") + PolyForm.d_var(c1, "b").scale(a + one1)
    maps = {
        (0, 1): {"a": -(x + one0) * z**-2 - one0, "b": y, "c": z**-1},
        (1, 0): {"x": -(a + one1) * c**-2 - one1, "y": b, "z": c**-1},
    }
    cs = cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps)
    assert cs.factors[(0, 1)] == -(z**2) and cs.factors[(1, 0)] == -(c**2)
    assert [str(top) for top in cs.tops] == ["(1) dx^dy^dz", "(1) da^db^dc"]
    results = canonical_cocycle_check(cs, 1)
    assert [r.status for r in results] == ["pass", "pass"]


def test_c1_requires_a_unit_top():
    """Declared: (1 + u) du is nonzero but vanishes at u = -1, so it fails (C.1) like the zero top."""
    chart = ChartSpace(["u"])
    du = PolyForm.d_var(chart, "u")
    with pytest.raises(ValueError, match=r"^\(C\.1\) fails for V0: gamma \^ \(d gamma\)\^0 = \(u \+ 1\) du$"):
        cstructure_from_charts(["V0"], [du.scale(chart.coeff_var("u") + chart.coeff_const(1))], {})
    with pytest.raises(ValueError, match=r"^\(C\.1\) fails for V0: gamma \^ \(d gamma\)\^0 = 0$"):
        cstructure_from_charts(["V0"], [PolyForm.zero(chart, 1)], {})


def test_n_is_read_off_the_charts():
    """du1 on a 3-dimensional chart has gamma ^ d gamma = 0: no n can make it pass (C.1)."""
    chart = ChartSpace(["u0", "u1", "u2"])
    with pytest.raises(ValueError, match=r"^\(C\.1\) fails for A: gamma \^ \(d gamma\)\^1 = 0$"):
        cstructure_from_charts(["A"], [PolyForm.d_var(chart, "u1")], {})


@pytest.mark.parametrize(
    "names, witness",
    [([["u"], ["u0", "u1", "u2"]], r"\[1, 3\]"), ([["u0", "u1"]], r"\[2\]")],
    ids=["two-dimensions", "even-dimension"],
)
def test_chart_forms_share_one_odd_dimension(names, witness):
    charts = [ChartSpace(chart_vars) for chart_vars in names]
    gammas = [PolyForm.d_var(chart, chart.all_vars[0]) for chart in charts]
    with pytest.raises(ValueError, match=rf"^c-structure chart forms need one odd dimension 2n \+ 1, not {witness}$"):
        cstructure_from_charts([f"V{k}" for k in range(len(gammas))], gammas, {})


def test_a_label_count_that_differs_from_the_form_count_is_rejected():
    """A second form with no label would never have its top checked."""
    chart = ChartSpace(["u"])
    gammas = [PolyForm.d_var(chart, "u"), PolyForm.zero(chart, 1)]
    with pytest.raises(ValueError, match=r"^2 chart forms need as many labels, not 1$"):
        cstructure_from_charts(["A"], gammas, {})


@pytest.mark.parametrize("key", [(0, 2), (-1, 0)])
def test_a_transition_key_outside_the_charts_is_rejected_by_pair(key):
    c0, c1 = ChartSpace(["u1"]), ChartSpace(["u0"])
    gammas = [PolyForm.d_var(c0, "u1"), PolyForm.d_var(c1, "u0")]
    maps = {key: {"u0": c0.coeff_var("u1") ** -1}}
    with pytest.raises(ValueError, match=rf"^transition \({key[0]}, {key[1]}\) names a chart outside 0\.\.1$"):
        cstructure_from_charts(["V0", "V1"], gammas, maps)


def test_c2_rejects_a_chart_form_that_depends_on_the_fiber():
    """gamma0 = lam du1 is no form on the base; it once gave the factor f_01 = 0."""
    c0, c1 = ChartSpace(["u1"], "lam"), ChartSpace(["u0"])
    gamma0 = PolyForm.d_var(c0, "u1").scale(c0.coeff_var("lam"))
    gamma1 = PolyForm.d_var(c1, "u0")
    maps = {(0, 1): {"u0": c0.coeff_var("u1") ** -1}}
    with pytest.raises(ValueError, match="depends on the fiber variable lam"):
        cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps)


def test_a_transition_spelled_off_its_source_chart_is_rejected_by_pair():
    """A transition image lives on chart i: spelled over anything else, the pair is named."""
    c0, c1 = ChartSpace(["u1"]), ChartSpace(["u0"])
    gamma0, gamma1 = PolyForm.d_var(c0, "u1"), PolyForm.d_var(c1, "u0")
    maps = {(0, 1): {"u0": MultiPoly.variable("u1", ("u1", "w")) ** -1}}
    with pytest.raises(ValueError, match=r"^transition \(V0, V1\): .* not over the chart ChartSpace\(\('u1',\)"):
        cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps)


def test_a_transition_imaging_no_target_variable_is_rejected_by_pair():
    """A transition gives images of chart j's variables alone: any other image names the pair."""
    c0, c1 = ChartSpace(["u1"]), ChartSpace(["u0"])
    gamma0, gamma1 = PolyForm.d_var(c0, "u1"), PolyForm.d_var(c1, "u0")
    maps = {(0, 1): {"u0": c0.coeff_var("u1") ** -1, "q": c0.coeff_const(1)}}
    with pytest.raises(ValueError, match=r"^transition \(V0, V1\): pullback images of \['q'\], which are not variables of ChartSpace\(\('u0',\)"):
        cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps)


def test_a_chart_form_on_a_fibered_chart_is_rejected_by_label():
    """gamma0 = du1 does not depend on lam, but its chart carries the fiber: a c-structure form lives on the base."""
    c0, c1 = ChartSpace(["u1"], "lam"), ChartSpace(["u0"])
    gamma0, gamma1 = PolyForm.d_var(c0, "u1"), PolyForm.d_var(c1, "u0")
    maps = {(0, 1): {"u0": c0.coeff_var("u1") ** -1}}
    with pytest.raises(ValueError, match=r"^V0: a c-structure chart form lives on the base, not on ChartSpace\(\('u1',\), fiber='lam'\)$"):
        cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps)


def test_a_section_image_spelled_off_its_source_chart_is_rejected():
    """A section's images live on its source chart: spelled over anything else, its map is not built."""
    src = ChartSpace(["u1"])
    images = {"z0": src.coeff_const(1), "z1": MultiPoly.variable("u1", ("u1", "w"))}
    with pytest.raises(ValueError, match=r"^u1 is spelled over \('u1', 'w'\), not over the chart ChartSpace\(\('u1',\)"):
        ChartMap(src, hopf_chart(0).chart, images)


def test_a_section_naming_no_source_variable_is_invalid():
    """A fibered base coordinate that is not a bare source variable fails the check, without raising.

    The base has weight 0, so its image must be ``c^0 * w = w`` itself.
    """
    cc = fibered_chart(0, 2)
    src = ChartSpace(["w"])
    for image in (src.coeff_var("w").scale(2), src.coeff_const(1), src.coeff_var("w") ** 2):
        section = ChartMap(src, cc.chart, {"z0": image, "lam": src.coeff_const(1)})
        with pytest.raises(ValueError, match="^S is not a section of the projection$"):
            reconstruct_cstructure(cc, {"S": section})


def test_a_fibered_section_may_rename_its_base_coordinate():
    """z0 -> w, lam -> 3 is a section; its pair with z0 -> z0, lam -> 1 has the gauge 3."""
    cc = fibered_chart(0, 2)
    src_w, src_z = ChartSpace(["w"]), ChartSpace(["z0"])
    s_w = ChartMap(src_w, cc.chart, {"z0": src_w.coeff_var("w"), "lam": src_w.coeff_const(3)})
    s_z = ChartMap(src_z, cc.chart, {"z0": src_z.coeff_var("z0"), "lam": src_z.coeff_const(1)})
    cs = reconstruct_cstructure(cc, {"W": s_w, "Z": s_z})
    assert cs.transition_maps[(0, 1)].images == {"z0": src_w.coeff_var("w")}
    assert cs.transition_maps[(1, 0)].images == {"w": src_z.coeff_var("z0")}
    assert cs.gauges[(0, 1)] == src_w.coeff_const(3)
    assert cs.factors[(0, 1)] == src_w.coeff_const(9)  # c^delta
    assert cs.gammas[0] == PolyForm.d_var(src_w, "w").scale(9)


def test_a_fibered_section_needs_the_fiber_as_its_unit():
    """The unit variable has weight 1: on a fibered chart only the fiber qualifies.

    With the images swapped, the one constant image is on the base variable
    of weight 0, so the map has no unit variable.
    """
    cc = fibered_chart(0, 2)
    src = ChartSpace(["z0"])
    images = {"z0": src.coeff_var("z0"), "lam": src.coeff_const(1)}
    cs = reconstruct_cstructure(cc, {"S": ChartMap(src, cc.chart, images)})
    assert cs.gammas == [PolyForm.d_var(src, "z0")]
    swapped = {"z0": images["lam"], "lam": images["z0"]}
    with pytest.raises(ValueError, match="^S is not a section of the projection$"):
        reconstruct_cstructure(cc, {"S": ChartMap(src, cc.chart, swapped)})


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_hopf_sections_are_chart_maps_keyed_by_label(n):
    """hopf_sections(n) is keyed V0 .. V{2n+1} in order, each a map to hopf_chart(n).chart with z_i -> 1."""
    sections = hopf_sections(n)
    assert list(sections) == [f"V{i}" for i in range(2 * n + 2)]
    target = hopf_chart(n).chart
    for i, section in enumerate(sections.values()):
        assert isinstance(section, ChartMap) and section.target == target
        assert section.images[f"z{i}"] == section.source.coeff_const(1)


def _off_sections():
    """(chart, a section of it, a map that is none) for each way the rule can break."""
    hopf0, hopf1, fib = hopf_chart(0), hopf_chart(1), fibered_chart(0, 2)
    u, uu, z = ChartSpace(["u1"]), ChartSpace(["u0", "u1"]), ChartSpace(["z0"])
    one, u1 = u.coeff_const(1), u.coeff_var("u1")
    v0 = hopf_sections(0)["V0"]
    return {
        "target-another-chart": (hopf1, hopf_sections(1)["V0"], v0),
        "target-same-names-other-order": (hopf0, v0, ChartMap(u, ChartSpace(["z1", "z0"]), {"z0": one, "z1": u1})),
        "two-constant-units": (hopf0, v0, ChartMap(u, hopf0.chart, {"z0": one, "z1": one.scale(2)})),
        "no-constant-unit": (hopf0, v0, ChartMap(uu, hopf0.chart, {f"z{k}": uu.coeff_var(f"u{k}") for k in (0, 1)})),
        "fibered-no-constant-unit": (
            fib,
            ChartMap(z, fib.chart, {"z0": z.coeff_var("z0"), "lam": z.coeff_const(1)}),
            ChartMap(z, fib.chart, {"z0": z.coeff_var("z0"), "lam": z.coeff_var("z0")}),
        ),
    }


@pytest.mark.parametrize("case", sorted(_off_sections()))
def test_a_map_off_the_section_rule_is_rejected_by_label(case):
    """A map to another chart, or with other than one constant unit image on a
    weight-1 variable, is no section; the error names its label, not its neighbour's."""
    cc, good, bad = _off_sections()[case]
    assert reconstruct_cstructure(cc, {"A": good}).charts == ["A"]
    with pytest.raises(ValueError, match="^B is not a section of the projection$"):
        reconstruct_cstructure(cc, {"A": good, "B": bad})


def test_a_repeated_label_is_rejected_by_name():
    """Two charts under one label would share a check id, so neither entry point takes one."""
    cs = reconstruct_cstructure(hopf_chart(1), hopf_sections(1))
    maps = {pair: trans.images for pair, trans in cs.transition_maps.items()}
    for labels, repeated in ((["V0", "V0", "V2", "V3"], "V0"), (["V0", "V1", "V2", "V1"], "V1")):
        with pytest.raises(ValueError, match=f"^the label {repeated} names more than one chart$"):
            cstructure_from_charts(labels, cs.gammas, maps)
        with pytest.raises(ValueError, match=f"^the label {repeated} names more than one chart$"):
            CStructureData(labels, cs.gammas, cs.transition_maps, cs.factors)


def _renamed_sections(n, prefix):
    """hopf_sections(n) with each source coordinate u<m> renamed <prefix><m>."""
    out = {}
    for label, section in hopf_sections(n).items():
        source = ChartSpace([prefix + name[1:] for name in section.source.all_vars])
        images = {x: MultiPoly(source.all_vars, image.terms) for x, image in section.images.items()}
        out[label] = ChartMap(source, section.target, images)
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_renamed_hopf_sections_give_the_same_cstructure(n):
    """The transitions come from the sections, not from their coordinate names."""
    cc = hopf_chart(n)
    cs = reconstruct_cstructure(cc, hopf_sections(n))
    renamed = reconstruct_cstructure(cc, _renamed_sections(n, "x"))
    results = canonical_cocycle_check(renamed, n)
    all_pass(results)
    assert [r.check_id for r in results] == [r.check_id for r in canonical_cocycle_check(cs, n)]
    assert renamed.factors.keys() == cs.factors.keys()
    for (i, j), factor in cs.factors.items():
        chart_i = renamed.gammas[i].chart.all_vars
        assert renamed.factors[(i, j)] == MultiPoly(chart_i, factor.terms)
        assert renamed.gauges[(i, j)] == MultiPoly(chart_i, cs.gauges[(i, j)].terms)


def test_reconstruct_reports_c2_through_one_path():
    """theta = d(z0 z1) pulls back to du1 and du0: (C.2) holds with f_01 = -u1^2, but the gauge is u1."""
    chart = ChartSpace(["z0", "z1"])
    z0, z1 = chart.coeff_var("z0"), chart.coeff_var("z1")
    theta = PolyForm.d_var(chart, "z0").scale(z1) + PolyForm.d_var(chart, "z1").scale(z0)
    cc = ContactChart(chart, theta, 2, {"z0": 1, "z1": 1}, label="exact")
    u1 = MultiPoly.variable("u1")
    maps = {(0, 1): {"u0": u1**-1}, (1, 0): {"u1": MultiPoly.variable("u0") ** -1}}
    gammas = [section.pull(theta) for section in hopf_sections(0).values()]
    assert cstructure_from_charts(["V0", "V1"], gammas, maps).factors[(0, 1)] == -(u1**2)
    with pytest.raises(ValueError, match=r"^\(C\.2\) fails for pair \(V0, V1\)$"):
        reconstruct_cstructure(cc, hopf_sections(0))


def test_a_vanishing_chart_form_fails_c1():
    """On hopf(0), theta + d(z0 z1) = 2 z0 dz1 pulls back to 2 u0 d(1) = 0 along V1.

    V1 alone has no pair, so the record's (C.1) check is what fails.
    """
    with pytest.raises(ValueError, match=r"^\(C\.1\) fails for V1: gamma \^ \(d gamma\)\^0 = 0$"):
        reconstruct_cstructure(exact_shifted_hopf_chart(0), {"V1": hopf_sections(0)["V1"]})


def test_the_pairs_are_checked_before_c1():
    """Declared: with V0 beside it, the vanishing form of V1 fails (C.2) on the pair first."""
    with pytest.raises(ValueError, match=r"^\(C\.2\) fails for pair \(V0, V1\)$"):
        reconstruct_cstructure(exact_shifted_hopf_chart(0), hopf_sections(0))


def _fibered_pair(delta, c, base):
    """fibered(0, delta) with z0 -> base, lam -> c against z0 -> z0, lam -> 1: the gauge is c."""
    src, src_z = ChartSpace([base]), ChartSpace(["z0"])
    cc = fibered_chart(0, delta)
    s = ChartMap(src, cc.chart, {"z0": src.coeff_var(base), "lam": src.coeff_const(c)})
    z = ChartMap(src_z, cc.chart, {"z0": src_z.coeff_var("z0"), "lam": src_z.coeff_const(1)})
    return cc, {"S": s, "Z": z}


GAUGE_CASES = {
    **{f"hopf{n}": (hopf_chart(n), hopf_sections(n)) for n in range(4)},
    **{f"renamed-hopf{n}": (hopf_chart(n), _renamed_sections(n, "x")) for n in (1, 2)},
    "fibered-gauge2": _fibered_pair(3, 2, "z0"),
    "fibered-gauge3": _fibered_pair(2, 3, "w"),
}


@pytest.mark.parametrize("case", sorted(GAUGE_CASES))
def test_gauges_match_the_substitute_and_compare_oracle(case):
    """Each gauge read off the unit images is the one g with sigma_i = g^w * (sigma_j o T_ij)."""
    cc, sections = GAUGE_CASES[case]
    cs = reconstruct_cstructure(cc, sections)
    assert cs.charts == list(sections)
    assert len(cs.gauges) == len(sections) * (len(sections) - 1)
    sigmas = list(sections.values())
    for (i, j), trans in cs.transition_maps.items():
        g = naive_gauge(cc.weights, sigmas[i], sigmas[j], trans.images)
        assert g is not None and naive_poly(cs.gauges[(i, j)]) == g


def test_the_gauge_oracle_rejects_a_transition_off_the_sections():
    """u0 -> u1 + 1 is no transition of hopf(0)'s sections: no gauge relates them."""
    v0, v1 = hopf_sections(0).values()
    assert naive_gauge({"z0": 1, "z1": 1}, v0, v1, {"u0": MultiPoly.variable("u1") + 1}) is None


def test_the_gauge_oracle_needs_one_unit_variable():
    """The oracle finds chart j's unit on its own: two constant images, or none, give no gauge."""
    v0, v1 = hopf_sections(0).values()
    trans = reconstruct_cstructure(hopf_chart(0), hopf_sections(0)).transition_maps[(0, 1)].images
    weights = {"z0": 1, "z1": 1}
    assert naive_gauge(weights, v0, v1, trans) is not None
    src = v1.source
    u0, one = src.coeff_var("u0"), src.coeff_const(1)
    for images in ({"z0": one, "z1": one}, {"z0": u0, "z1": u0}):
        assert naive_gauge(weights, v0, ChartMap(src, v1.target, images), trans) is None


@pytest.mark.parametrize("n", [1, 3, 5])
def test_reconstruct_reads_each_section_once(monkeypatch, n):
    """The 2n+2 sections' coordinates are derived once each, not once per pair."""
    calls = []
    coordinates = contact._section_coordinates

    def counted(cc, section):
        calls.append(section)
        return coordinates(cc, section)

    monkeypatch.setattr(contact, "_section_coordinates", counted)
    reconstruct_cstructure(hopf_chart(n), hopf_sections(n))
    assert len(calls) == 2 * n + 2


@pytest.mark.parametrize("n", [1, 3, 5])
def test_reconstruct_and_cocycle_build_each_top_once(monkeypatch, n):
    """One record, and one wedge power per chart: the 2n + 2 tops serve (C.1) and the cocycle."""
    powers, records = [], []
    wedge_power, init = PolyForm.wedge_power, CStructureData.__init__

    def counted_power(self, k):
        powers.append(k)
        return wedge_power(self, k)

    def counted_init(self, *args, **kwargs):
        records.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolyForm, "wedge_power", counted_power)
    monkeypatch.setattr(CStructureData, "__init__", counted_init)
    all_pass(canonical_cocycle_check(reconstruct_cstructure(hopf_chart(n), hopf_sections(n)), n))
    assert powers == [n] * (2 * n + 2)
    assert len(records) == 1


def test_cocycle_builds_no_differential_of_a_transition(monkeypatch):
    """Each transition's image differentials are built with its map, once: the
    cocycle check and any further pull along the map take no d."""
    calls = []

    def counted(form):
        calls.append(form.degree)
        return exterior_derivative(form)

    monkeypatch.setattr(forms, "exterior_derivative", counted)
    monkeypatch.setattr(contact, "exterior_derivative", counted)
    cs = reconstruct_cstructure(hopf_chart(1), hopf_sections(1))
    assert calls
    calls.clear()
    all_pass(canonical_cocycle_check(cs, 1))
    trans = cs.transition_maps[(0, 1)]
    assert trans.pull(cs.tops[1]) == trans.pull(cs.tops[1])
    assert calls == []


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
