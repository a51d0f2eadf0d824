import itertools
import random
from fractions import Fraction

import pytest

from contactcheck.forms import (
    ChartSpace,
    PolyForm,
    PolyVectorField,
    exterior_derivative as d,
    interior_product as iota,
    lie_derivative,
    pullback,
)
from contactcheck.poly import MultiPoly
from conftest import gq
from oracles import naive_contraction, naive_wedge

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
        assert value.norm_sq() == (fact * 2 ** (n + 1)) ** 2


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
    gamma = pullback(src, images, theta)
    expected = (
        PolyForm.d_var(src, "u2")
        + PolyForm.d_var(src, "u3").scale(src.coeff_var("u1"))
        - PolyForm.d_var(src, "u1").scale(src.coeff_var("u3"))
    )
    assert gamma == expected


def test_pullback_along_identity():
    rnd = random.Random(41)
    images = {name: C4.coeff_var(name) for name in C4.all_vars}
    for p in (0, 1, 2):
        a = rand_form(C4, p, rnd)
        assert pullback(C4, images, a) == a


def test_scaling_pullback_degree_two():
    theta = hopf_theta(C4, 1)
    src = ChartSpace(["t"] + list(C4.base_vars))
    t = src.coeff_var("t")
    images = {name: src.coeff_var(name) * t for name in C4.base_vars}
    pulled = pullback(src, images, theta)
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
        assert pullback(src, composed, a) == pullback(
            src, images2, pullback(mid, images1, a)
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
        pullback(src, bad, theta)
    not_unit = {"z": src.coeff_var("u"), "lam": src.coeff_var("mu") * src.coeff_var("u")}
    with pytest.raises(ValueError, match="unit fiber image"):
        pullback(src, not_unit, theta)
    good = {"z": src.coeff_var("u"), "lam": src.coeff_var("mu").scale(3)}
    pulled = pullback(src, good, theta)
    mu = src.coeff_var("mu")
    assert pulled == PolyForm(src, 1, {(0,): (mu**-1).scale(Fraction(1, 3))})
    cubed = {"z": src.coeff_var("u"), "lam": (mu**3).scale(2)}
    assert pullback(src, cubed, theta) == PolyForm(
        src, 1, {(0,): (mu**-3).scale(Fraction(1, 2))}
    )


# -- evaluation --------------------------------------------------------------------------


def test_evaluate_form_at_point():
    theta = hopf_theta(ChartSpace(["z0", "z1"]), 0)
    values = theta.evaluate({"z0": gq(1), "z1": gq(0)})
    assert values == {(1,): gq(1)}


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
