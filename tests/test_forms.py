import itertools
import random
from fractions import Fraction

import pytest

from contactcheck.forms import (
    ChartMap,
    ChartSpace,
    PolyForm,
    PolyVectorField,
    exterior_derivative as d,
    interior_product as iota,
    lie_derivative,
)
from contactcheck.poly import MultiPoly
from conftest import gq
from oracles import (
    naive_bracket,
    naive_contraction,
    naive_directional_derivative,
    naive_exterior_derivative,
    naive_poly,
    naive_wedge,
)

C4 = ChartSpace(["z0", "z1", "z2", "z3"])
FIB = ChartSpace(["z"], "lam")


def hopf_theta(chart, n):
    theta = PolyForm.zero(chart, 1)
    for k in range(n + 1):
        zk = chart.coeff_var(f"z{k}")
        zk_op = chart.coeff_var(f"z{k + n + 1}")
        theta = theta + PolyForm.d_var(chart, f"z{k + n + 1}").scale(zk)
        theta = theta - PolyForm.d_var(chart, f"z{k}").scale(zk_op)
    return theta


def rand_coeff(chart, rnd, laurent=True):
    out = chart.coeff_zero()
    for _ in range(3):
        k = rnd.randrange(-2, 3) if (chart.fiber_var and laurent) else 0
        expo = tuple(rnd.randrange(0, 4) for _ in chart.base_vars)
        c = gq(
            Fraction(rnd.randrange(-5, 6), rnd.randrange(1, 4)),
            Fraction(rnd.randrange(-3, 4)),
        )
        spelled = expo + ((k,) if chart.fiber_var else ())
        out = out + chart.coeff(MultiPoly(chart.all_vars, {spelled: c}))
    return out


def rand_form(chart, p, rnd):
    keys = list(itertools.combinations(range(chart.dim), p))
    picks = rnd.sample(keys, min(2, len(keys)))
    return PolyForm(chart, p, {k: rand_coeff(chart, rnd) for k in picks})


def full_form(chart, p, rnd):
    """A p-form with a coefficient on every key, so pieces of d collide."""
    keys = itertools.combinations(range(chart.dim), p)
    return PolyForm(chart, p, {k: rand_coeff(chart, rnd) for k in keys})


def rand_field(chart, rnd):
    return PolyVectorField(chart, {i: rand_coeff(chart, rnd) for i in range(chart.dim)})


# -- wedge ------------------------------------------------------------------------


def test_wedge_square_of_one_form_with_itself_vanishes():
    dz = PolyForm.d_var(C4, "z0")
    assert dz.wedge(dz).is_zero()


def test_wedge_transposition_sign():
    # (z0 dz1) ^ dz0 = -z0 dz0^dz1
    z0 = C4.coeff_var("z0")
    lhs = PolyForm.d_var(C4, "z1").scale(z0).wedge(PolyForm.d_var(C4, "z0"))
    rhs = PolyForm(C4, 2, {(0, 1): -z0})
    assert lhs == rhs


def test_theta_wedge_dtheta_nonzero_oracle():
    theta = hopf_theta(C4, 1)
    top3 = theta.wedge(d(theta))
    assert not top3.is_zero()
    assert top3 == naive_wedge(theta, d(theta))


def test_wedge_against_naive_oracle_randomized():
    rnd = random.Random(11)
    for _ in range(6):
        a = rand_form(C4, rnd.choice([1, 2]), rnd)
        b = rand_form(C4, 1, rnd)
        assert a.wedge(b) == naive_wedge(a, b)


def test_wedge_beyond_top_degree_is_zero():
    rnd = random.Random(3)
    a = rand_form(FIB, 2, rnd)
    b = rand_form(FIB, 1, rnd)
    assert a.wedge(b).is_zero()


# -- exterior derivative -------------------------------------------------------------


def test_d_of_laurent_power():
    # d(lam^3 dz) = 3 lam^2 dlam ^ dz = -3 lam^2 dz ^ dlam
    lam = FIB.coeff_var("lam")
    theta = PolyForm(FIB, 1, {(0,): lam**3})
    expected = PolyForm(FIB, 2, {(0, 1): (lam**2).scale(-3)})
    assert d(theta) == expected


def test_d_of_hopf_theta():
    theta = hopf_theta(C4, 1)
    two = C4.coeff_const(2)
    expected = PolyForm(C4, 2, {(0, 2): two, (1, 3): two})
    assert d(theta) == expected


def test_d_of_constant_form():
    const = PolyForm(C4, 1, {(0,): C4.coeff_const(5)})
    assert d(const).is_zero()


def test_dd_zero_randomized():
    rnd = random.Random(23)
    for chart in (C4, FIB):
        for p in (0, 1, 2):
            for _ in range(4):
                assert d(d(rand_form(chart, p, rnd))).is_zero()


@pytest.mark.parametrize("chart", [C4, FIB], ids=["C4", "FIB"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_d_of_full_forms_against_naive_oracle(chart, p):
    """Every key filled: pieces of d collide on each new key, and on an exact
    form ``d eta`` they all cancel."""
    rnd = random.Random(31 + p)
    for _ in range(3):
        omega = full_form(chart, p, rnd)
        assert d(omega) == naive_exterior_derivative(omega)
        if p:
            exact = d(full_form(chart, p - 1, rnd))
            assert not exact.is_zero()
            assert d(exact).is_zero() and naive_exterior_derivative(exact).is_zero()


@pytest.mark.parametrize("chart", [C4, FIB], ids=["C4", "FIB"])
def test_sum_with_negative_is_empty(chart):
    rnd = random.Random(5)
    for p in range(chart.dim + 1):
        omega = full_form(chart, p, rnd)
        assert (omega + (-omega)).terms == {}
    field = rand_field(chart, rnd)
    assert (field + (-field)).components == {}


def _checked_copy(result):
    """``result`` rebuilt by its public, checked constructor."""
    if isinstance(result, PolyForm):
        return PolyForm(result.chart, result.degree, result.terms)
    return PolyVectorField(result.chart, result.components)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("chart", [C4, FIB], ids=["C4", "FIB"])
def test_unchecked_results_pass_the_checked_constructors(chart, seed):
    """Every result of the calculus is canonical: rebuilding it checked changes nothing."""
    rnd = random.Random(seed)
    X, Y = rand_field(chart, rnd), rand_field(chart, rnd)
    results = [X + Y, X - Y, X - X, -X, X.bracket(Y), X.bracket(X)]
    for p in range(chart.dim + 1):
        a, b = rand_form(chart, p, rnd), full_form(chart, p, rnd)
        results += [a + b, a - b, b - b, -a, d(a), d(b), iota(X, a), iota(X, b)]
        results += [lie_derivative(X, a), lie_derivative(Y, b)]
        for q in range(chart.dim + 1 - p):
            c = rand_form(chart, q, rnd)
            results += [a.wedge(c), b.wedge(c), c.wedge(b)]
    results.append(b.wedge(rand_form(chart, 1, rnd)))
    assert any(r.is_zero() for r in results) and not all(r.is_zero() for r in results)
    for r in results:
        assert _checked_copy(r) == r, r


def test_top_power_of_hopf_symplectic_form():
    # (d theta)^(n+1) = +-(n+1)! 2^(n+1) * volume
    for n in (0, 1, 2):
        chart = ChartSpace([f"z{i}" for i in range(2 * n + 2)])
        theta = hopf_theta(chart, n)
        top = d(theta).wedge_power(n + 1)
        key = tuple(range(2 * n + 2))
        assert set(top.terms) == {key}
        value = top.terms[key].constant_value()
        fact = 1
        for i in range(2, n + 2):
            fact *= i
        assert value.re**2 + value.im**2 == (fact * 2 ** (n + 1)) ** 2


# -- interior product ------------------------------------------------------------------


def test_interior_dual_pairing():
    form = PolyForm(FIB, 2, {(0, 1): FIB.coeff_const(1)})  # dz ^ dlam
    dlam_field = PolyVectorField(FIB, {1: FIB.coeff_const(1)})
    assert iota(dlam_field, form) == PolyForm(FIB, 1, {(0,): FIB.coeff_const(-1)})


def test_interior_euler_field_hopf():
    for n in (0, 1):
        chart = ChartSpace([f"z{i}" for i in range(2 * n + 2)])
        theta = hopf_theta(chart, n)
        e = PolyVectorField(chart, {i: chart.coeff_var(f"z{i}") for i in range(2 * n + 2)})
        assert iota(e, d(theta)) == theta + theta


def test_interior_on_zero_form():
    f = PolyForm.function(C4, C4.coeff_var("z0"))
    X = PolyVectorField(C4, {0: C4.coeff_const(1)})
    assert iota(X, f).is_zero()


def test_iota_squared_zero_randomized():
    rnd = random.Random(5)
    for _ in range(5):
        a = rand_form(C4, 2, rnd)
        X = rand_field(C4, rnd)
        assert iota(X, iota(X, a)).is_zero()


# -- full contraction ------------------------------------------------------------------

FIB3 = ChartSpace(["z0", "z1", "z2"], "lam")


@pytest.mark.parametrize("chart", [C4, FIB3], ids=["hopf", "fibered"])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_apply_matches_naive_contraction(chart, p):
    rnd = random.Random(100 + p)
    for _ in range(4):
        form = rand_form(chart, p, rnd)
        fields = [rand_field(chart, rnd) for _ in range(p)]
        assert form.apply(*fields) == naive_contraction(form, fields)
        # a field missing a component exercises the zero terms of the sum
        if p:
            sparse = PolyVectorField(chart, dict(list(fields[0].components.items())[1:]))
            fields = [sparse] + fields[1:]
            assert form.apply(*fields) == naive_contraction(form, fields)


def test_apply_is_alternating_and_checks_arity():
    rnd = random.Random(9)
    form = rand_form(FIB3, 2, rnd)
    X, Y = rand_field(FIB3, rnd), rand_field(FIB3, rnd)
    assert form.apply(X, Y) == -form.apply(Y, X)
    assert form.apply(X, X).is_zero()
    with pytest.raises(ValueError, match="need 2 fields, got 1"):
        form.apply(X)


# -- Lie derivative -------------------------------------------------------------------


def test_translation_derivative():
    # L_{d/dz}(z dz) = dz on the fibered base
    form = PolyForm(FIB, 1, {(0,): FIB.coeff_var("z")})
    X = PolyVectorField(FIB, {0: FIB.coeff_const(1)})
    assert lie_derivative(X, form) == PolyForm(FIB, 1, {(0,): FIB.coeff_const(1)})


def test_lie_derivative_of_symplectic_by_hamiltonian_dual():
    """L_{Xi(df)} dtheta = 0 for polynomial f (the closed-form invariance)."""
    from contactcheck.contact import hamiltonian_field, hopf_chart

    cc = hopf_chart(1)
    rnd = random.Random(9)
    for _ in range(4):
        f = rand_coeff(cc.chart, rnd)
        X = hamiltonian_field(cc, f)
        assert lie_derivative(X, d(cc.theta)).is_zero()


def test_fiber_scaling_derivative():
    # B'_1 = lam d/dlam on theta = lam^delta dz: L theta = delta theta
    for delta in (-2, 1, 3):
        theta = PolyForm(FIB, 1, {(0,): FIB.coeff_var("lam") ** delta})
        B1 = PolyVectorField(FIB, {1: FIB.coeff_var("lam")})
        assert lie_derivative(B1, theta) == theta.scale(delta)


def test_lie_commutes_with_d_randomized():
    rnd = random.Random(31)
    for chart in (C4, FIB):
        for p in (0, 1):
            a = rand_form(chart, p, rnd)
            X = rand_field(chart, rnd)
            assert lie_derivative(X, d(a)) == d(lie_derivative(X, a))


def test_field_bracket_against_derivative_action():
    rnd = random.Random(17)
    X = rand_field(C4, rnd)
    Y = rand_field(C4, rnd)
    f = rand_coeff(C4, rnd)
    lhs = X.bracket(Y).apply_to(f)
    rhs = X.apply_to(Y.apply_to(f)) - Y.apply_to(X.apply_to(f))
    assert lhs == rhs


# -- derivations and contraction against the oracles ----------------------------------
#
# FIB3 coefficients carry fiber exponents in -2..2.  The fixed cases make a
# sum cancel to zero, or cancel one monomial and then add it again, in the
# order the library accumulates its pieces.


def test_derivations_have_negative_fiber_exponents_to_read():
    rnd = random.Random(41)
    exponents = {e[-1] for _ in range(6) for e in rand_coeff(FIB3, rnd).terms}
    assert min(exponents) < 0 < max(exponents)


@pytest.mark.parametrize("chart", [C4, FIB3], ids=["hopf", "fibered"])
def test_apply_to_matches_naive_directional_derivative(chart):
    rnd = random.Random(41)
    for _ in range(6):
        X, h = rand_field(chart, rnd), rand_coeff(chart, rnd)
        assert naive_poly(X.apply_to(h)) == naive_directional_derivative(X, h)


@pytest.mark.parametrize("chart", [C4, FIB3], ids=["hopf", "fibered"])
def test_bracket_matches_naive_bracket(chart):
    rnd = random.Random(43)
    for _ in range(4):
        X, Y = rand_field(chart, rnd), rand_field(chart, rnd)
        bracket = X.bracket(Y)
        assert {i: naive_poly(c) for i, c in bracket.components.items()} == naive_bracket(X, Y)


def _field(chart, **components):
    return PolyVectorField(chart, {chart.var_index(name): c for name, c in components.items()})


def test_derivations_that_cancel_against_the_oracles():
    one, lam = FIB3.coeff_const(1), FIB3.coeff_var("lam")
    z0, z1 = FIB3.coeff_var("z0"), FIB3.coeff_var("z1")
    # X(h) = 0: z0 d/dz0 - lam d/dlam kills z0 * lam.
    X = _field(FIB3, z0=z0, lam=-lam)
    h = z0 * lam
    assert X.apply_to(h).is_zero() and naive_directional_derivative(X, h) == {}
    # The constant monomial gets 1, then -1 (it cancels), then 1 again.
    X = _field(FIB3, z0=one, z1=-one, z2=one)
    h = z0 + z1 + FIB3.coeff_var("z2")
    assert X.apply_to(h) == one and naive_directional_derivative(X, h) == naive_poly(one)
    # [X, X] = 0: every component cancels.
    X = _field(FIB3, z0=z0 * lam**-2, lam=z1 * lam)
    assert X.bracket(X).is_zero() and naive_bracket(X, X) == {}
    # [X, Y]_2 = X(z0 + z1) - Y(z0): 1 - 1 cancels, then -1 comes back.
    X = _field(FIB3, z0=one, z1=-one, z2=z0)
    Y = _field(FIB3, z0=one, z2=z0 + z1)
    bracket = X.bracket(Y)
    assert bracket == _field(FIB3, z2=-one)
    assert {i: naive_poly(c) for i, c in bracket.components.items()} == naive_bracket(X, Y)


def _coordinate_fields(chart):
    one = chart.coeff_const(1)
    return [PolyVectorField(chart, {j: one}) for j in range(chart.dim)]


def _contraction_by_oracle(X, form):
    """The terms of ``iota_X form``, each coefficient read off the oracle as
    ``form(X, d/dx_j1, ..., d/dx_jq)`` for every increasing key ``j``."""
    units = _coordinate_fields(form.chart)
    terms = {}
    for key in itertools.combinations(range(form.chart.dim), form.degree - 1):
        value = naive_contraction(form, [X, *(units[j] for j in key)])
        if not value.is_zero():
            terms[key] = value
    return terms


@pytest.mark.parametrize("chart", [C4, FIB3], ids=["hopf", "fibered"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_interior_product_matches_naive_contraction(chart, p):
    rnd = random.Random(200 + p)
    for _ in range(3):
        X = rand_field(chart, rnd)
        for form in (rand_form(chart, p, rnd), full_form(chart, p, rnd)):
            assert iota(X, form).terms == _contraction_by_oracle(X, form)


def test_contractions_that_cancel_against_the_oracle():
    one = FIB3.coeff_const(1)
    lam = FIB3.coeff_var("lam")
    # Key (0,) gets -lam^-1 from dz0^dz1 and +lam^-1 from dz0^dz2: the sum is 0.
    omega = PolyForm(FIB3, 2, {(0, 1): lam**-1, (0, 2): lam**-1})
    X = _field(FIB3, z1=one, z2=-one)
    assert iota(X, omega).is_zero() and _contraction_by_oracle(X, omega) == {}
    assert omega.apply(X, _coordinate_fields(FIB3)[0]).is_zero()
    # A third key brings (0,) back after it cancelled.
    omega = PolyForm(FIB3, 2, {(0, 1): lam**-1, (0, 2): lam**-1, (0, 3): lam**-1})
    X = _field(FIB3, z1=one, z2=-one, lam=one)
    assert iota(X, omega) == PolyForm(FIB3, 1, {(0,): -(lam**-1)})
    assert iota(X, omega).terms == _contraction_by_oracle(X, omega)


# -- pullback ---------------------------------------------------------------------------


def test_pullback_of_section_gives_base_contact_form():
    theta = hopf_theta(C4, 1)
    src = ChartSpace(["u1", "u2", "u3"])
    images = {
        "z0": src.coeff_const(1),
        "z1": src.coeff_var("u1"),
        "z2": src.coeff_var("u2"),
        "z3": src.coeff_var("u3"),
    }
    gamma = ChartMap(src, C4, images).pull(theta)
    expected = (
        PolyForm.d_var(src, "u2")
        + PolyForm.d_var(src, "u3").scale(src.coeff_var("u1"))
        - PolyForm.d_var(src, "u1").scale(src.coeff_var("u3"))
    )
    assert gamma == expected


def test_pullback_rejects_an_image_of_no_target_variable():
    """An image of a name outside the target chart is an error, even for a zero form."""
    images = {name: C4.coeff_var(name) for name in C4.all_vars}
    images["q"] = C4.coeff_const(1)
    for form in (PolyForm.zero(C4, 1), hopf_theta(C4, 1)):
        with pytest.raises(ValueError, match=r"pullback images of \['q'\], which are not variables of ChartSpace"):
            ChartMap(C4, C4, images).pull(form)


def test_pullback_along_identity():
    rnd = random.Random(41)
    images = {name: C4.coeff_var(name) for name in C4.all_vars}
    for p in (0, 1, 2):
        a = rand_form(C4, p, rnd)
        assert ChartMap(C4, C4, images).pull(a) == a


def test_scaling_pullback_degree_two():
    theta = hopf_theta(C4, 1)
    src = ChartSpace(["t"] + list(C4.base_vars))
    t = src.coeff_var("t")
    images = {name: src.coeff_var(name) * t for name in C4.base_vars}
    pulled = ChartMap(src, C4, images).pull(theta)
    # every coefficient carries exactly t^2
    expected = PolyForm(
        src,
        1,
        {
            (src.var_index(C4.all_vars[i]),): coeff * t * t
            for (i,), coeff in (
                (key, _lift(src, c)) for key, c in theta.terms.items()
            )
        },
    )
    assert pulled == expected


def _lift(src, coeff):
    return src.coeff(coeff)


def test_pullback_functorial():
    rnd = random.Random(53)
    mid = ChartSpace(["u", "w"])
    src = ChartSpace(["s"])
    images1 = {name: _rand_poly_image(mid, rnd) for name in C4.all_vars}
    images2 = {"u": _rand_poly_image(src, rnd), "w": _rand_poly_image(src, rnd)}
    composed = {
        name: src.coeff(
            images1[name].substitute(
                {"u": src.base_part(images2["u"]), "w": src.base_part(images2["w"])}
            )
        )
        for name in C4.all_vars
    }
    for _ in range(3):
        a = rand_form(C4, rnd.choice([1, 2]), rnd)
        assert ChartMap(src, C4, composed).pull(a) == ChartMap(src, mid, images2).pull(
            ChartMap(mid, C4, images1).pull(a)
        )


def _rand_poly_image(chart, rnd):
    expo = tuple(rnd.randrange(0, 3) for _ in chart.base_vars)
    return chart.coeff(MultiPoly(chart.base_vars, {expo: gq(rnd.randrange(1, 5))}))


def test_pullback_rejects_nonmonomial_fiber_for_laurent():
    theta = PolyForm(FIB, 1, {(0,): FIB.coeff_var("lam") ** -1})
    src = ChartSpace(["u"], "mu")
    bad = {
        "z": src.coeff_var("u"),
        "lam": src.coeff_var("mu") + src.coeff_const(1),
    }
    with pytest.raises(ValueError, match="unit fiber image"):
        ChartMap(src, FIB, bad).pull(theta)
    # The same map pulls back a form with no negative fiber power.
    assert ChartMap(src, FIB, bad).pull(PolyForm.d_var(FIB, "z")) == PolyForm.d_var(src, "u")
    not_unit = {"z": src.coeff_var("u"), "lam": src.coeff_var("mu") * src.coeff_var("u")}
    with pytest.raises(ValueError, match="unit fiber image"):
        ChartMap(src, FIB, not_unit).pull(theta)
    good = {"z": src.coeff_var("u"), "lam": src.coeff_var("mu").scale(3)}
    pulled = ChartMap(src, FIB, good).pull(theta)
    mu = src.coeff_var("mu")
    assert pulled == PolyForm(src, 1, {(0,): (mu**-1).scale(Fraction(1, 3))})
    cubed = {"z": src.coeff_var("u"), "lam": (mu**3).scale(2)}
    assert ChartMap(src, FIB, cubed).pull(theta) == PolyForm(
        src, 1, {(0,): (mu**-3).scale(Fraction(1, 2))}
    )


def test_pullback_along_an_overlap_inverts_coordinates():
    """Chart changes of projective space: u0 -> 1/u1, and u_m -> u_m/u1 on CP^3."""
    line0, line1 = ChartSpace(["u1"]), ChartSpace(["u0"])
    u1 = line0.coeff_var("u1")
    pulled = ChartMap(line0, line1, {"u0": u1**-1}).pull(PolyForm.d_var(line1, "u0"))
    assert pulled == PolyForm(line0, 1, {(0,): -(u1**-2)})

    src, target = ChartSpace(["u1", "u2", "u3"]), ChartSpace(["u0", "u2", "u3"])
    u1, u2, u3 = (src.coeff_var(name) for name in src.all_vars)
    images = {"u0": u1**-1, "u2": u2 * u1**-1, "u3": u3 * u1**-1}
    gamma = (
        PolyForm.d_var(target, "u2")
        + PolyForm.d_var(target, "u3").scale(target.coeff_var("u0"))
        - PolyForm.d_var(target, "u0").scale(target.coeff_var("u3"))
    )
    assert ChartMap(src, target, images).pull(gamma) == PolyForm(
        src, 1, {(0,): -u2 * u1**-2, (1,): u1**-1, (2,): u1**-2}
    )
    top = PolyForm(target, 3, {(0, 1, 2): target.coeff_const(1)})
    assert ChartMap(src, target, images).pull(top) == PolyForm(src, 3, {(0, 1, 2): -(u1**-4)})


def test_chart_map_pulls_back_forms_on_its_target_alone():
    """A form on another chart does not pull back: the error names both charts."""
    src = ChartSpace(["u1", "u2", "u3"])
    trans = ChartMap(src, C4, {name: src.coeff_var("u1") for name in C4.all_vars})
    other = ChartSpace(["z0", "z1", "z2"])
    with pytest.raises(ValueError, match=r"on ChartSpace\(\('z0', 'z1', 'z2'\).*to ChartSpace\(\('z0', 'z1', 'z2', 'z3'\)"):
        trans.pull(PolyForm.d_var(other, "z0"))


# -- evaluation --------------------------------------------------------------------------


def test_evaluate_form_at_point():
    theta = hopf_theta(ChartSpace(["z0", "z1"]), 0)
    values = theta.evaluate({"z0": gq(1), "z1": gq(0)})
    assert values == {(1,): gq(1)}


def test_evaluate_rejects_a_value_of_no_chart_variable():
    """Forms and fields evaluate at points of their own chart: another name is an error."""
    chart = ChartSpace(["z0", "z1"])
    point = {"z0": gq(1), "z1": gq(2), "q": gq(3)}
    with pytest.raises(ValueError, match=r"values for \['q'\], which are not variables of \('z0', 'z1'\)"):
        hopf_theta(chart, 0).evaluate(point)
    with pytest.raises(ValueError, match=r"values for \['q'\], which are not variables of \('z0', 'z1'\)"):
        _field(chart, z0=chart.coeff_const(1)).evaluate(point)


def test_evaluate_homogeneity():
    theta = hopf_theta(C4, 1)
    pt = {f"z{i}": gq(i + 1) for i in range(4)}
    scaled = {k: gq(3) * v for k, v in pt.items()}
    base = theta.evaluate(pt)
    up = theta.evaluate(scaled)
    # coefficients of a weight-1-per-slot linear form scale by t, total weight 2
    # comes with the dz slot's own weight under pullback; pointwise this is t^1.
    assert up == {k: gq(3) * v for k, v in base.items()}


def test_constant_symplectic_matrix():
    theta = hopf_theta(C4, 1)
    dtheta = exterior = d(theta)
    v1 = dtheta.evaluate({f"z{i}": gq(i) for i in range(4)})
    v2 = dtheta.evaluate({f"z{i}": gq(7 - i) for i in range(4)})
    assert v1 == v2


def test_d_and_the_sampler_make_no_scalar_product_by_one(monkeypatch):
    """The terms of a partial derivative in d, and the sampler's drawn
    monomials, are added as bare monomials: no call of the product kernel
    ``linalg.add_scaled``, wrapped at every module that binds it, multiplies
    by the constant 1, as its terms or as its scalar.  Products of a
    coefficient by an exponent k >= 2 still happen in d, as ``add_scaled``
    calls with that int triple, so the wrappers are seen to run."""
    from contactcheck import contact, forms, linalg, poly, sampling
    from contactcheck.contact import fibered_chart, hopf_chart
    from contactcheck.sampling import SeededSampler
    from contactcheck.scalars import ONE

    add_scaled = linalg.add_scaled
    products, by_one = [], []

    def counting_add_scaled(out, t, vec, shift=None):
        products.append(t)
        a, b, d = t
        by_one_term = len(vec) == 1 and ONE in vec.values() and not any(next(iter(vec)))
        if (a, b) == (d, 0) or by_one_term:
            by_one.append((t, vec))
        return add_scaled(out, t, vec, shift)

    charts = [hopf_chart(1), fibered_chart(1, 3), fibered_chart(2, -2)]
    z = C4.coeff_var("z0")
    cases = [cc.theta for cc in charts] + [PolyForm.function(C4, z * z * z - z), hopf_theta(C4, 1)]
    bindings = [m for m in (linalg, poly, forms, contact, sampling) if getattr(m, "add_scaled", None) is add_scaled]
    assert {linalg, poly, forms} <= set(bindings)
    for module in bindings:
        monkeypatch.setattr(module, "add_scaled", counting_add_scaled)
    for form in cases:
        d(d(form))
    sampler = SeededSampler(2024)
    for cc in charts:
        for ell in range(-2 if cc.chart.fiber_var else 0, 4):
            sampler.homogeneous(cc, ell, terms=3)
    assert products and by_one == []
