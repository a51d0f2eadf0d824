from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcheck.laurent import LaurentPoly
from contactcheck.poly import MultiPoly, try_divide
from contactcheck.ratfunc import RationalFunction, compose_rational
from contactcheck.scalars import GaussianRational, gq

x = MultiPoly.variable("x")
y = MultiPoly.variable("y")


# -- strategies ---------------------------------------------------------------

coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2),
)


@st.composite
def polys(draw, variables=("x", "y", "z"), max_terms=4, max_degree=3):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        expo = tuple(draw(st.integers(0, max_degree)) for _ in variables)
        terms[expo] = draw(coeffs)
    return MultiPoly(variables, terms)


# -- explicit examples ---------------------------------------------------------


def test_difference_of_squares():
    assert (x + y) * (x - y) == x * x - y * y


def test_absorbing_zero():
    p = x * x + 3 * y
    assert (p * MultiPoly.zero(("x", "y"))).is_zero()


def test_additive_inverse_across_var_lists():
    a = MultiPoly.variable("x") + 1
    b = -MultiPoly.variable("x", ("x", "y")) - 1
    assert (a + b).is_zero()


def test_power_rule():
    p = x * x * y
    assert p.diff("x") == 2 * x * y
    assert MultiPoly.const(5, ("x",)).diff("x").is_zero()
    q = x**3 + x * y * y
    assert q.diff("y") == 2 * x * y


def test_diff_unknown_variable_rejected():
    with pytest.raises(ValueError):
        x.diff("w")


def test_scaling_substitution():
    t = MultiPoly.variable("t")
    assert (x * x).substitute({"x": t * x}) == t * t * x * x


def test_swap_substitution():
    p = x + y
    assert p.substitute({"x": y, "y": x}) == p


def test_substitute_is_homomorphism():
    a = x * x + y
    b = x - 2 * y
    binding = {"x": y * y, "y": x + 1}
    assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)


def test_canonical_string_order():
    p = x * x - y + MultiPoly.const(gq(0, 2), ("x", "y"))
    assert str(p) == "x^2 - y + 2i"


def test_evaluate():
    p = x * x + y.scale(gq(0, 1))
    assert p.evaluate({"x": gq(2), "y": gq(3)}) == gq(4, 3)


# -- property tests -------------------------------------------------------------


@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a - a).is_zero()


@given(polys(), polys())
@settings(max_examples=50, deadline=None)
def test_leibniz(a, b):
    lhs = (a * b).diff("x")
    rhs = a.diff("x") * b + a * b.diff("x")
    assert lhs == rhs


@given(polys(max_terms=3, max_degree=2))
@settings(max_examples=30, deadline=None)
def test_substitution_composes(p):
    first = {"x": y + 1}
    second = {"y": x * x}
    composed = {"x": (y + 1).substitute(second), "y": x * x}
    assert p.substitute(first).substitute(second) == p.substitute(composed)


# -- exact division ---------------------------------------------------------------


def test_try_divide_exact_and_failing():
    assert try_divide(x * x - y * y, x + y) == x - y
    assert try_divide(x * x + 1, x + y) is None


# -- Laurent ----------------------------------------------------------------------


def test_laurent_embedding_of_inverse():
    lam_inv = LaurentPoly.fiber_power("lam", -1)
    ly = LaurentPoly.from_poly(y, "lam")
    prod = lam_inv * ly
    assert prod.parts == {-1: y}


def test_laurent_diff_shifts_exponent():
    f = LaurentPoly.fiber_power("lam", -2) * LaurentPoly.from_poly(x, "lam")
    d = f.diff("lam")
    assert d == LaurentPoly("lam", {-3: x.scale(-2)})


def test_laurent_weighted_degree():
    f = LaurentPoly("lam", {3: x * x})
    assert f.weighted_degree({"x": 0, "lam": 1}) == 3
    assert f.weighted_degree({"x": 1, "lam": 1}) == 5
    mixed = f + LaurentPoly("lam", {1: y})
    assert mixed.weighted_degree({"x": 0, "lam": 1}) is None


def test_laurent_evaluate_rejects_zero_fiber():
    f = LaurentPoly.fiber_power("lam", -1)
    with pytest.raises(ZeroDivisionError):
        f.evaluate({"lam": gq(0)})
    assert f.evaluate({"lam": gq(2)}) == gq(Fraction(1, 2))


# -- rational functions -------------------------------------------------------------


def test_rational_reduction():
    r = RationalFunction(x * x - y * y, x + y)
    assert r.is_polynomial()
    assert r == x - y


def test_rational_equality_cross_multiplies():
    a = RationalFunction(x, y)
    b = RationalFunction(x * (x + y), y * (x + y))
    assert a == b


def test_rational_derivative_quotient_rule():
    r = RationalFunction(MultiPoly.const(1, ("x",)), x)
    d = r.diff("x")
    assert d == RationalFunction(MultiPoly.const(-1, ("x",)), x * x)


def test_compose_rational():
    f = compose_rational(x * y, {"x": RationalFunction(MultiPoly.const(1, ("y",)), y)})
    assert f == RationalFunction.const(1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, MultiPoly.zero(("x",)))


def test_rational_canonical_form_has_monomial_denominator():
    r = RationalFunction(x * x * y + x * x * x, x * y * y * (x + y))
    assert r.num == x and r.den == y * y
    assert str(RationalFunction(x - y, x * y * 2)) == "(1/2*x - 1/2*y) / (x*y)"


def test_rational_exact_division_by_non_unit():
    assert (RationalFunction.from_poly(x * y + y * y) / (x + y)) == y


def test_non_laurent_quotient_raises():
    with pytest.raises(ArithmeticError, match="is not a Laurent polynomial"):
        RationalFunction(x, x + y)
    with pytest.raises(ArithmeticError, match="is not a Laurent polynomial"):
        RationalFunction.from_poly(x) / (x + y)
    with pytest.raises(ZeroDivisionError):
        RationalFunction.from_poly(x) / MultiPoly.zero(("x",))


@st.composite
def laurents(draw, base=("x", "y"), fiber="lam"):
    n_parts = draw(st.integers(0, 3))
    parts = {}
    for _ in range(n_parts):
        k = draw(st.integers(-3, 3))
        expo = tuple(draw(st.integers(0, 2)) for _ in base)
        parts[k] = MultiPoly(base, {expo: draw(coeffs)})
    return LaurentPoly(fiber, parts)


@given(laurents(), laurents(), laurents())
@settings(max_examples=40, deadline=None)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a - a).is_zero()


@given(laurents(), laurents())
@settings(max_examples=40, deadline=None)
def test_laurent_leibniz_including_fiber(a, b):
    for var in ("x", "lam"):
        assert (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)


@given(laurents())
@settings(max_examples=30, deadline=None)
def test_laurent_mixed_partials_commute(f):
    assert f.diff("x").diff("lam") == f.diff("lam").diff("x")


@given(laurents(), coeffs.filter(lambda c: not c.is_zero()), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_laurent_division_by_a_unit_is_exact(a, c, k):
    u = LaurentPoly.fiber_power("lam", k, c)
    assert (a * u) / u == a


@pytest.mark.parametrize(
    "divisor",
    [
        LaurentPoly.fiber_power("lam", 1) + 1,
        LaurentPoly.from_poly(MultiPoly.variable("z0"), "lam"),
        LaurentPoly("lam", {}),
    ],
    ids=["lam+1", "z0", "zero"],
)
def test_laurent_division_by_a_non_unit_raises(divisor):
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.from_poly(x, "lam") / divisor
