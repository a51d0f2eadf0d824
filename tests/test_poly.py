import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcheck.forms import ChartSpace
from contactcheck.poly import MultiPoly, try_divide
from contactcheck.scalars import GaussianRational
from conftest import gq
from oracles import (
    naive_poly,
    naive_poly_add,
    naive_poly_diff,
    naive_poly_evaluate,
    naive_poly_mul,
)

x = MultiPoly.variable("x")
y = MultiPoly.variable("y")


# -- strategies ---------------------------------------------------------------

coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2),
)


@st.composite
def polys(draw, variables=("x", "y", "z"), max_terms=4, max_degree=3, min_degree=0):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        expo = tuple(draw(st.integers(min_degree, max_degree)) for _ in variables)
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


def test_equal_polynomials_print_alike():
    """Variables print in natural name order, whatever order the operands stored."""
    z0, z1, z2, z10 = (MultiPoly.variable(f"z{k}") for k in (0, 1, 2, 10))
    assert str(z1 * z0) == str(z0 * z1) == "z0*z1"
    assert str(z10 * z2 + z10) == "z2*z10 + z10"
    p = z10 * z10 * z2 - z2 * z2 * z10 + z1.scale(gq(0, 3)) + 1
    q = MultiPoly(("z2", "z10", "z1", "x"), p.with_vars(("z2", "z10", "z1", "x")).terms)
    r = MultiPoly(("z1", "z10", "z2"), p.with_vars(("z1", "z10", "z2")).terms)
    assert p == q == r
    assert str(p) == str(q) == str(r) == "-z2^2*z10 + z2*z10^2 + 3i*z1 + 1"
    assert [c for _, c in q.sorted_terms()] == [c for _, c in r.sorted_terms()]


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


# -- the chart ring Q(i)[x, y][lam^±1] ---------------------------------------------

CHART = ChartSpace(("x", "y"), "lam")
LAM = CHART.coeff_var("lam")


def test_laurent_embedding_of_inverse():
    prod = LAM**-1 * CHART.coeff(y)
    assert prod.vars == CHART.all_vars and prod.terms == {(0, 1, -1): gq(1)}


def test_laurent_diff_shifts_exponent():
    f = LAM**-2 * CHART.coeff(x)
    d = f.diff("lam")
    assert d == (LAM**-3 * CHART.coeff(x)).scale(-2)


def test_laurent_weighted_degree():
    f = LAM**3 * CHART.coeff(x * x)
    assert f.weighted_degree({"x": 0, "lam": 1}) == 3
    assert f.weighted_degree({"x": 1, "lam": 1}) == 5
    mixed = f + LAM * CHART.coeff(y)
    assert mixed.weighted_degree({"x": 0, "lam": 1}) is None


def test_laurent_constant_value_reads_the_fiber_free_part():
    assert CHART.base_part(CHART.coeff_const(3)).constant_value() == gq(3)
    assert CHART.base_part(CHART.coeff_zero()).constant_value() == gq(0)
    for f in (LAM, CHART.coeff(x)):
        with pytest.raises(ValueError):
            CHART.base_part(f).constant_value()


def test_laurent_evaluate_rejects_zero_fiber():
    f = LAM**-1
    with pytest.raises(ZeroDivisionError):
        f.evaluate({"x": gq(1), "y": gq(1), "lam": gq(0)})
    assert f.evaluate({"x": gq(1), "y": gq(1), "lam": gq(2)}) == gq(Fraction(1, 2))


# -- the Laurent ring Q(i)[u^±1] -------------------------------------------------------

laurent_polys = polys(max_terms=3, max_degree=2, min_degree=-2)


def test_rational_reduction():
    r = (x * x - y * y) / (x + y)
    assert all(e >= 0 for expo in r.terms for e in expo)
    assert r == x - y


def test_rational_equality_cross_multiplies():
    a = x / y
    b = (x * (x + y)) / (y * (x + y))
    assert a == b


def test_rational_derivative_quotient_rule():
    r = MultiPoly.const(1, ("x",)) / x
    d = r.diff("x")
    assert d == MultiPoly.const(-1, ("x",)) / (x * x)


def test_compose_rational():
    f = (x * y).substitute({"x": MultiPoly.const(1, ("y",)) / y})
    assert f == MultiPoly.const(1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        x / MultiPoly.zero(("x",))


def test_rational_canonical_form_has_monomial_denominator():
    r = (x * x * y + x * x * x) / (x * y * y * (x + y))
    assert r == x * y**-2 and str(r) == "(x) / (y^2)"
    assert str((x - y) / (x * y * 2)) == "(1/2*x - 1/2*y) / (x*y)"


def test_rational_exact_division_by_non_unit():
    assert (x * y + y * y) / (x + y) == y


def test_non_laurent_quotient_raises():
    with pytest.raises(ArithmeticError, match="is not a Laurent polynomial"):
        x / (x + y)
    with pytest.raises(ArithmeticError, match="is not a Laurent polynomial"):
        (x * y**-1) / (x + y)
    with pytest.raises(ArithmeticError, match="is not a Laurent polynomial"):
        (x + y) ** -1
    with pytest.raises(ZeroDivisionError):
        x / MultiPoly.zero(("x",))


@given(laurent_polys, laurent_polys, laurent_polys)
@settings(max_examples=40, deadline=None)
def test_laurent_multipoly_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a - a).is_zero()


@given(laurent_polys, laurent_polys)
@settings(max_examples=40, deadline=None)
def test_laurent_multipoly_leibniz(a, b):
    for var in ("x", "y", "z"):
        assert (a * b).diff(var) == a.diff(var) * b + a * b.diff(var)


@given(
    laurent_polys,
    coeffs.filter(lambda c: not c.is_zero()),
    st.tuples(*[st.integers(-2, 2)] * 3),
    st.integers(-3, 3),
)
@settings(max_examples=40, deadline=None)
def test_laurent_multipoly_division_by_a_monomial(a, c, expo, k):
    b = MultiPoly(("x", "y", "z"), {expo: c})
    assert (a * b) / b == a
    assert b**k * b**-k == 1


@given(laurent_polys, laurent_polys.filter(lambda b: len(b.terms) > 1))
@settings(max_examples=40, deadline=None)
def test_laurent_multipoly_exact_division_by_a_non_monomial(a, b):
    assert (a * b) / b == a


@st.composite
def laurents(draw, chart=CHART):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        k = draw(st.integers(-3, 3))
        expo = tuple(draw(st.integers(0, 2)) for _ in chart.base_vars)
        terms[expo + (k,)] = draw(coeffs)
    return chart.coeff(MultiPoly(chart.all_vars, terms))


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
    u = (LAM**k).scale(c)
    assert CHART.is_unit(u)
    assert (a * u) / u == a


DIVISION_CHART = ChartSpace(("x", "z0"), "lam")


@pytest.mark.parametrize(
    "divisor",
    [
        DIVISION_CHART.coeff_var("lam") + 1,
        DIVISION_CHART.coeff_var("z0"),
        DIVISION_CHART.coeff_zero(),
    ],
    ids=["lam+1", "z0", "zero"],
)
def test_laurent_division_by_a_non_unit_raises(divisor):
    """Only a unit ``c * lam^k`` divides in the chart ring."""
    chart = DIVISION_CHART
    assert not chart.is_unit(divisor)
    with pytest.raises((ArithmeticError, ValueError)):
        chart.coeff(chart.coeff_var("x") / divisor)


def test_division_by_a_single_term_is_a_shift_and_a_scale(monkeypatch):
    """A monomial divisor is a unit of the Laurent ring: no long division runs."""
    from contactcheck import poly

    def refuse(num, den):
        raise AssertionError(f"long division of {num} by the monomial {den}")

    monkeypatch.setattr(poly, "try_divide", refuse)
    m = MultiPoly(("x", "y"), {(2, -1): gq(3, 1)})
    a = x * x * y - y**-2 + 5
    assert (a * m) / m == a
    assert a / m * m == a
    assert (x * y) / y.scale(2) == x.scale(Fraction(1, 2))
    assert m**-2 * m**2 == 1
    f = LAM**-2 * CHART.coeff(x) - CHART.coeff(y)
    assert (f * LAM**3) / LAM**3 == f


# -- sparse arithmetic against the dict oracle ---------------------------------------


def _assert_canonical(p: MultiPoly) -> None:
    """Every stored exponent has the right width and no stored coefficient is 0."""
    for expo, coeff in p.terms.items():
        assert len(expo) == len(p.vars) and min(expo, default=0) >= 0, (p.vars, expo)
        assert isinstance(coeff, GaussianRational) and not coeff.is_zero(), (p.vars, expo)


def _assert_canonical_laurent(f: MultiPoly) -> None:
    """Spelled over the chart's variables, negative exponents only on the fiber, no stored 0."""
    assert f.vars == CHART.all_vars
    for expo, coeff in f.terms.items():
        assert min(expo[:-1]) >= 0, expo
        assert isinstance(coeff, GaussianRational) and not coeff.is_zero(), expo


def _random_poly(rng: random.Random, variables, max_terms=5, max_degree=3) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[expo] = gq(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
    return MultiPoly(variables, terms)


VAR_LISTS = [
    (("x", "y", "z"), ("x", "y", "z")),
    (("x", "y"), ("y", "x")),
    (("x", "z"), ("y",)),
    (("z", "y", "x"), ("x", "w")),
]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("va, vb", VAR_LISTS)
def test_arithmetic_matches_dict_oracle(seed, va, vb):
    rng = random.Random(seed)
    a, b = _random_poly(rng, va), _random_poly(rng, vb)
    na, nb = naive_poly(a), naive_poly(b)
    neg_b = {mono: -c for mono, c in nb.items()}
    cases = {
        "+": (a + b, naive_poly_add(na, nb)),
        "-": (a - b, naive_poly_add(na, neg_b)),
        "*": (a * b, naive_poly_mul(na, nb)),
        "a-a": (a - a, {}),
    }
    for var in va:
        cases[f"d/d{var}"] = (a.diff(var), naive_poly_diff(na, var))
    for name, (got, want) in cases.items():
        _assert_canonical(got)
        assert naive_poly(got) == want, name


I = gq(0, 1)


@pytest.mark.parametrize(
    "product, expected",
    [
        ((x + y) * (x - y), {(("x", 2),): gq(1), (("y", 2),): gq(-1)}),
        ((x + y.scale(I)) * (x - y.scale(I)), {(("x", 2),): gq(1), (("y", 2),): gq(1)}),
        ((x * x + x * y + y * y) * (x - y), {(("x", 3),): gq(1), (("y", 3),): gq(-1)}),
        ((x + 1) * (x - 1) + 1 - x * x, {}),
    ],
    ids=["(x+y)(x-y)", "(x+iy)(x-iy)", "x^3-y^3", "cancels-to-0"],
)
def test_cancelling_results_store_no_zero(product, expected):
    _assert_canonical(product)
    assert naive_poly(product) == expected


def test_sum_over_permuted_variables_cancels_to_zero():
    p = MultiPoly(("x", "y"), {(2, 1): gq(1, 1), (0, 3): gq(-2)})
    q = MultiPoly(("y", "x"), {(1, 2): gq(-1, -1), (3, 0): gq(2)})
    assert (p + q).terms == {} and (q + p).terms == {}


def test_diff_on_exponent_one_and_higher():
    p = MultiPoly(("x", "y"), {(1, 0): gq(3), (1, 2): gq(0, 1), (4, 1): gq(Fraction(1, 2))})
    assert naive_poly(p.diff("x")) == {
        (): gq(3),
        (("y", 2),): gq(0, 1),
        (("x", 3), ("y", 1)): gq(2),
    }
    assert naive_poly(p.diff("y")) == {
        (("x", 1), ("y", 1)): gq(0, 2),
        (("x", 4),): gq(Fraction(1, 2)),
    }


@pytest.mark.parametrize("seed", range(20))
def test_laurent_arithmetic_stores_no_zero_part(seed):
    rng = random.Random(seed)

    def laurent():
        parts = {k: _random_poly(rng, ("x", "y"), max_terms=3, max_degree=2) for k in (-1, 0, 2)}
        out = CHART.coeff_zero()
        for k, part in parts.items():
            out = out + LAM**k * CHART.coeff(part)
        return out

    a, b = laurent(), laurent()
    results = [a + b, a - b, -a, a * b, a - a, a * (b - b), a.diff("x"), a.diff("lam")]
    results.append((a + 1) * (a - 1) - a * a)
    for f in results:
        _assert_canonical_laurent(f)
    assert (a - a).terms == {}


def _chart_coefficient(rng: random.Random) -> MultiPoly:
    """A seeded coefficient of ``CHART``: fiber exponents from -3 to 3, the first negative."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expo = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(-3, 3 if terms else -1))
        terms[expo] = gq(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
    return CHART.coeff(MultiPoly(CHART.all_vars, terms))


@pytest.mark.parametrize("seed", range(20))
def test_chart_ring_matches_dict_oracle(seed):
    """The chart ring's arithmetic, derivatives and values against the dict oracle."""
    rng = random.Random(seed)
    a, b = _chart_coefficient(rng), _chart_coefficient(rng)
    na, nb = naive_poly(a), naive_poly(b)
    cases = {
        "+": (a + b, naive_poly_add(na, nb)),
        "-": (a - b, naive_poly_add(na, {mono: -c for mono, c in nb.items()})),
        "*": (a * b, naive_poly_mul(na, nb)),
    }
    for var in ("x", "lam"):
        cases[f"d/d{var}"] = (b.diff(var), naive_poly_diff(nb, var))
    for name, (got, want) in cases.items():
        _assert_canonical_laurent(got)
        assert naive_poly(got) == want, name
    point = {name: gq(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2))
             for name in CHART.all_vars}
    for f, nf in ((a, na), (b, nb), (a * b, naive_poly_mul(na, nb))):
        assert f.evaluate(point) == naive_poly_evaluate(nf, point)


def test_public_constructors_keep_their_checks():
    with pytest.raises(ValueError, match="does not match variables"):
        MultiPoly(("x", "y"), {(1,): 1})
    assert MultiPoly(("x",), {(-1,): 1}) == x**-1
    p = MultiPoly(("x",), {(1,): 3, (2,): 0, (0,): GaussianRational(0)})
    assert p.terms == {(1,): gq(3)} and isinstance(p.terms[(1,)], GaussianRational)
    lam = MultiPoly.variable("lam")
    plain = ChartSpace(("x", "y"))
    for outside in (lam * x, lam, lam**-1):
        with pytest.raises(ValueError, match="is not a variable of the chart"):
            plain.coeff(outside)
    for chart in (plain, CHART):
        with pytest.raises(ValueError, match="negative exponent"):
            chart.coeff(x**-1)
    f = CHART.coeff(MultiPoly(("lam", "x"), {(1, 0): 0, (0, 1): 1}))
    assert f.vars == CHART.all_vars and f.terms == {(1, 0, 0): gq(1)}


def test_evaluate_sums_are_not_seeded_with_zero(capsys, monkeypatch):
    """No Gaussian-rational sum made in poly starts from ZERO or 0.

    ``evaluate`` seeds each sum with its first term; a zero polynomial
    still evaluates to ZERO.
    """
    import sys

    from contactcheck import cli
    from contactcheck.scalars import ZERO

    add = GaussianRational.__add__
    sums, zero_sums = [], []

    def counting_add(self, other):
        caller = sys._getframe(1).f_code.co_filename
        if caller.endswith("poly.py"):
            sums.append(caller)
            if self is ZERO or other is ZERO or (type(other) is int and other == 0):
                zero_sums.append(caller)
        return add(self, other)

    monkeypatch.setattr(GaussianRational, "__add__", counting_add)
    monkeypatch.setattr(GaussianRational, "__radd__", counting_add)
    for argv in (
        ["verify-contact", "--model", "fibered", "--n", "1", "--delta", "3", "--samples", "5"],
        ["immersion", "--n", "1"],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert sums and zero_sums == []
    assert MultiPoly.zero(("x",)).evaluate({"x": gq(2)}) is ZERO
    assert CHART.coeff_zero().evaluate({"x": gq(1), "y": gq(1), "lam": gq(2)}) is ZERO
