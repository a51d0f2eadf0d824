import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcheck.forms import ChartSpace
from contactcheck.linalg import add_scaled, scaled_triple
from contactcheck.poly import MultiPoly, add_monomial, add_product, from_sum
from contactcheck.scalars import GaussianRational
from conftest import gq
from oracles import (
    naive_poly,
    naive_poly_add,
    naive_poly_diff,
    naive_poly_evaluate,
    naive_poly_mul,
    naive_product_sum,
    naive_scaling_degrees,
    naive_substitute,
)

XYZ = ("x", "y", "z")
x = MultiPoly.variable("x", XYZ)
y = MultiPoly.variable("y", XYZ)


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
    assert (p * MultiPoly.zero(XYZ)).is_zero()


def test_additive_inverse_across_var_lists():
    """Two spellings of x do not add: one must be re-spelled first."""
    a = MultiPoly.variable("x") + 1
    b = -MultiPoly.variable("x", ("x", "y")) - 1
    with pytest.raises(ValueError, match=r"spelled over \('x',\) and \('x', 'y'\)"):
        a + b
    assert (ChartSpace(("x", "y")).coeff(a) + b).is_zero()


TWO_SPELLINGS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "==": lambda a, b: a == b,
    "substitute": lambda a, b: a.substitute({"x": a, "y": b}),
}


@pytest.mark.parametrize("op", TWO_SPELLINGS.values(), ids=TWO_SPELLINGS.keys())
def test_two_spellings_raise(op):
    """Every operation takes one spelling; the error names both tuples."""
    a = MultiPoly.variable("x", ("x", "y"))
    b = MultiPoly.variable("y", ("y", "x"))
    with pytest.raises(ValueError, match=r"\('x', 'y'\).*\('y', 'x'\)|\('y', 'x'\).*\('x', 'y'\)"):
        op(a, b)
    assert op(a, ChartSpace(a.vars).coeff(b)) is not None


def test_power_rule():
    p = x * x * y
    assert p.diff("x") == 2 * x * y
    assert MultiPoly.const(5, ("x",)).diff("x").is_zero()
    q = x**3 + x * y * y
    assert q.diff("y") == 2 * x * y


@pytest.mark.parametrize("k", range(8))
def test_powers_against_repeated_oracle_products(k):
    """Square and multiply with no product by the starting 1 and no square past
    the top bit: ``p^k`` is the oracle's k-fold product, ``p^1`` is ``p``."""
    p = x * y - (y**-1).scale(gq(1, 2)) + 3
    want = {(): gq(1)}
    for _ in range(k):
        want = naive_poly_mul(want, naive_poly(p))
    assert naive_poly(p**k) == want
    unit = x * y.scale(2)
    assert unit**-k * unit**k == 1


def test_diff_unknown_variable_rejected():
    with pytest.raises(ValueError):
        x.diff("w")


def test_scaling_substitution():
    t, tx = (MultiPoly.variable(name, ("t",) + XYZ) for name in "tx")
    assert (x * x).substitute({"x": t * tx}) == t * t * tx * tx


def test_swap_substitution():
    p = x + y
    assert p.substitute({"x": y, "y": x}) == p


def test_substitute_rejects_a_binding_of_no_variable():
    """A binding of a name the polynomial does not have is an error, not a no-op."""
    with pytest.raises(ValueError, match=r"bindings for \['q'\], which are not variables of \('x',\)"):
        MultiPoly.variable("x").substitute({"q": MultiPoly.variable("x")})


def test_substitute_is_homomorphism():
    a = x * x + y
    b = x - 2 * y
    binding = {"x": y * y, "y": x + 1}
    assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)


def test_canonical_string_order():
    p = x * x - y + MultiPoly.const(gq(0, 2), XYZ)
    assert str(p) == "x^2 - y + 2i"


def test_equal_polynomials_print_alike():
    """Variables print in natural name order, whatever order the operands stored."""
    stored = ("z10", "z2", "z1", "z0")
    z0, z1, z2, z10 = (MultiPoly.variable(f"z{k}", stored) for k in (0, 1, 2, 10))
    assert str(z1 * z0) == str(z0 * z1) == "z0*z1"
    assert str(z10 * z2 + z10) == "z2*z10 + z10"
    p = z10 * z10 * z2 - z2 * z2 * z10 + z1.scale(gq(0, 3)) + 1
    q = ChartSpace(("z2", "z10", "z1", "x")).coeff(p)
    r = ChartSpace(("z1", "z10", "z2")).coeff(p)
    assert p == ChartSpace(stored).coeff(q) == ChartSpace(stored).coeff(r)
    assert str(p) == str(q) == str(r) == "-z2^2*z10 + z2*z10^2 + 3i*z1 + 1"
    assert [c for _, c in q.sorted_terms()] == [c for _, c in r.sorted_terms()]


def test_evaluate():
    p = x * x + y.scale(gq(0, 1))
    assert p.evaluate({"x": gq(2), "y": gq(3), "z": gq(5)}) == gq(4, 3)


def test_evaluate_rejects_a_value_of_no_variable():
    """A point that names a variable the polynomial does not have is an error, not ignored."""
    with pytest.raises(ValueError, match=r"^values for \['q'\], which are not variables of \('x',\)$"):
        MultiPoly.variable("x").evaluate({"x": 1, "q": 2})


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


def test_rational_derivative_quotient_rule():
    r = MultiPoly.const(1, XYZ) / x
    d = r.diff("x")
    assert d == MultiPoly.const(-1, XYZ) / (x * x)


def test_compose_rational():
    f = (x * y).substitute({"x": MultiPoly.const(1, XYZ) / y})
    assert f == MultiPoly.const(1, XYZ)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        x / MultiPoly.zero(XYZ)


def test_rational_canonical_form_has_monomial_denominator():
    r = (x * x * y + x * x * x) / (x * y * y)
    assert r == x * y**-1 + x * x * y**-2 and str(r) == "(x^2 + x*y) / (y^2)"
    assert str((x - y) / (x * y * 2)) == "(1/2*x - 1/2*y) / (x*y)"


def test_non_laurent_quotient_raises():
    with pytest.raises(ArithmeticError, match="the divisor is not a unit"):
        x / (x + y)
    with pytest.raises(ArithmeticError, match="the divisor is not a unit"):
        (x * y**-1) / (x + y)
    with pytest.raises(ArithmeticError, match="the divisor is not a unit"):
        (x + y) ** -1
    with pytest.raises(ZeroDivisionError):
        x / MultiPoly.zero(XYZ)


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


@given(laurents())
@settings(max_examples=60, deadline=None)
def test_one_pass_partials_match_the_naive_derivative_in_every_slot(f):
    """``partial_terms`` reads every slot's partial in one pass; the terms of
    each slot, as ``k * c`` at ``e``, are the oracle's derivative in that
    variable, negative fiber exponents included.  No term has ``k == 0`` and
    no slot repeats an exponent."""
    pieces = list(f.partial_terms())
    assert all(k and k == e[slot] + 1 for slot, k, c, e in pieces)
    for slot, name in enumerate(f.vars):
        mine = [(e, c * k) for s, k, c, e in pieces if s == slot]
        assert len({e for e, _ in mine}) == len(mine)
        got = {tuple(sorted((v, n) for v, n in zip(f.vars, e) if n)): c for e, c in mine}
        assert got == naive_poly_diff(naive_poly(f), name), name


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


def test_division_by_a_single_term_is_a_shift_and_a_scale():
    """A monomial divisor is a unit of the Laurent ring: the quotient is a shift and a scale."""
    m = MultiPoly(XYZ, {(2, -1, 0): gq(3, 1)})
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
    # A mixed pair is re-spelled over the union of its variables first.
    union = ChartSpace(tuple(dict.fromkeys(va + vb)))
    a, b = union.coeff(_random_poly(rng, va)), union.coeff(_random_poly(rng, vb))
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
    """A permuted spelling does not add until it is re-spelled; then the sum cancels."""
    p = MultiPoly(("x", "y"), {(2, 1): gq(1, 1), (0, 3): gq(-2)})
    q = MultiPoly(("y", "x"), {(1, 2): gq(-1, -1), (3, 0): gq(2)})
    for a, b in ((p, q), (q, p)):
        with pytest.raises(ValueError, match="spelled over"):
            a + b
    q = ChartSpace(p.vars).coeff(q)
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
    assert MultiPoly(XYZ, {(-1, 0, 0): 1}) == x**-1
    p = MultiPoly(("x",), {(1,): 3, (2,): 0, (0,): GaussianRational(0)})
    assert p.terms == {(1,): gq(3)} and isinstance(p.terms[(1,)], GaussianRational)
    lam = MultiPoly.variable("lam")
    lam_x = MultiPoly.variable("lam", ("lam", "x")) * MultiPoly.variable("x", ("lam", "x"))
    plain = ChartSpace(("x", "y"))
    for outside in (lam_x, lam, lam**-1):
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
    still evaluates to ZERO.  The CLI runs sum their products by
    ``linalg.add_scaled``, on integer triples, so a multi-term ``evaluate`` is made
    under the spy too and its sums are seen.
    """
    import sys

    from contactcheck import cli
    from contactcheck.scalars import ZERO

    add = GaussianRational.__add__
    sums, zero_sums = [], []
    x, y = MultiPoly.variable("x", ("x", "y")), MultiPoly.variable("y", ("x", "y"))
    multi_term = x * x * y - x * gq(0, 1) + 3

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
    assert multi_term.evaluate({"x": gq(2), "y": gq(Fraction(1, 2))}) == GaussianRational(5, -2)
    assert sums and zero_sums == []
    assert MultiPoly.zero(("x",)).evaluate({"x": gq(2)}) is ZERO
    assert CHART.coeff_zero().evaluate({"x": gq(1), "y": gq(1), "lam": gq(2)}) is ZERO


UNIT_SCALARS = [gq(1), gq(-1), gq(Fraction(-3, 4), Fraction(5, 2))]
UNIT_EXPONENTS = [(0, 0, 0), (1, 0, -1), (0, 2, -3), (2, 1, 2)]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("expo", UNIT_EXPONENTS, ids=["const", "x/lam", "y^2/lam^3", "x^2*y*lam^2"])
@pytest.mark.parametrize("c", UNIT_SCALARS, ids=["1", "-1", "gaussian"])
def test_unit_products_against_dict_oracle(seed, expo, c):
    """A product by a unit ``c * u^e``, on either side, is the full convolution."""
    rng = random.Random(seed)
    unit = MultiPoly(CHART.all_vars, {expo: c})
    assert unit.is_unit()
    others = [_chart_coefficient(rng), CHART.coeff_zero(), CHART.coeff_const(c), unit]
    nu = naive_poly(unit)
    for a in others:
        want = naive_poly_mul(naive_poly(a), nu)
        for got in (a * unit, unit * a):
            _assert_canonical_laurent(got)
            assert naive_poly(got) == want, (a, unit)


# -- bare monomials, substitution and weighted degrees ---------------------------------


def test_add_monomial_stores_cancels_and_starts_afresh():
    """A new monomial is stored as given, a cancelling one is dropped, and one
    added again after cancelling starts afresh."""
    total = {}
    c = gq(Fraction(3, 2), -1)
    add_monomial(total, c, (1, 0, -2))
    assert total[(1, 0, -2)] is c
    add_scaled(total, scaled_triple(gq(2), 1), x.terms, (0, 1, 0))
    add_monomial(total, gq(-2), (1, 1, 0))
    assert total == {(1, 0, -2): c}
    add_monomial(total, -c, (1, 0, -2))
    assert total == {}
    add_monomial(total, gq(5), (1, 0, -2))
    assert from_sum(XYZ, total) == MultiPoly(XYZ, {(1, 0, -2): gq(5)})


UV = ("u", "v")


#: Kernel scalars: real and complex, equal and unequal denominators, and
#: negatives of each other, so sums cancel.
KERNEL_SCALARS = [
    gq(1), gq(-1), gq(2), gq(Fraction(1, 2)), gq(Fraction(-3, 4)), gq(0, 1), gq(0, -1),
    gq(0, Fraction(1, 2)), gq(Fraction(1, 3), Fraction(2, 3)), gq(2, -3),
    gq(Fraction(5, 6), Fraction(-1, 4)), gq(Fraction(-5, 6), Fraction(1, 4)),
]
kernel_scalars = st.sampled_from(KERNEL_SCALARS)
kernel_exponents = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
kernel_terms = st.dictionaries(kernel_exponents, kernel_scalars, min_size=1, max_size=3)
multipliers = st.sampled_from([1, -1, 2, -2, 3, -5])
kernel_calls = st.one_of(
    st.tuples(st.just("add"), multipliers, kernel_scalars, kernel_exponents, kernel_terms),
    st.tuples(st.just("add_monomial"), multipliers, kernel_scalars, kernel_exponents),
    st.tuples(st.just("add_product"), multipliers, kernel_terms, kernel_terms),
)


def _feed(total: dict, call) -> list:
    """Make one kernel call; return its pieces ``(k, c, shift, terms)`` for the oracle."""
    kind, k = call[:2]
    if kind == "add":
        _, _, c, shift, terms = call
        add_scaled(total, scaled_triple(c, k), terms, shift)
        return [(k, c, shift, terms)]
    if kind == "add_monomial":
        _, _, c, expo = call
        add_monomial(total, c, expo, k)
        return [(k, c, expo, {(0, 0): GaussianRational(1)})]
    _, _, p, q = call
    add_product(total, MultiPoly(UV, p), MultiPoly(UV, q), k)
    return [(k, c, e, q) for e, c in p.items()]


@given(st.lists(kernel_calls, min_size=1, max_size=12), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_product_sum_matches_operator_sums(calls, again):
    """A sum of products in one exponent -> scalar dict, fed by ``add_scaled``
    on ``scaled_triple``, ``add_monomial`` and ``add_product``, against a dict
    summed by the scalar operators.  The calls are made, then made again with
    ``-k``, so every monomial cancels and the oracle is empty, then a prefix
    is made a third time, so monomials come back after cancelling.  Every
    stored coefficient is canonical and nonzero, and ``from_sum`` wraps the
    dict as the polynomial of the oracle's terms."""
    negated = [(kind, -k, *rest) for kind, k, *rest in calls]
    total = {}
    pieces = []
    for stage in (calls, negated, calls[:again]):
        pieces += [piece for call in stage for piece in _feed(total, call)]
        assert total == naive_product_sum(pieces)
        for coeff in total.values():
            a, b, d = coeff.triple
            assert type(coeff) is GaussianRational and d > 0 and gcd(a, b, d) == 1
            assert (a, b) != (0, 0)
    assert from_sum(UV, total) == MultiPoly(UV, naive_product_sum(pieces))


@st.composite
def substitutions(draw):
    """A polynomial in x, y, z (z may have negative powers) and images over (u, v):
    x and y go to any Laurent polynomials, z to a unit ``c * u^a * v^b``."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = (draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(-2, 2)))
        terms[expo] = draw(coeffs)
    unit = {tuple(draw(st.integers(-2, 2)) for _ in UV): draw(coeffs.filter(lambda c: not c.is_zero()))}
    images = {
        "x": draw(polys(UV, max_terms=3, max_degree=2, min_degree=-1)),
        "y": draw(polys(UV, max_terms=2, max_degree=2)),
        "z": MultiPoly(UV, unit),
    }
    return MultiPoly(XYZ, terms), images


@given(substitutions())
@settings(max_examples=60)
def test_substitute_matches_the_repeated_product_oracle(case):
    p, images = case
    got = p.substitute(images)
    assert got.vars == UV
    assert naive_poly(got) == naive_substitute(p, images)


def test_substitute_sums_in_one_accumulator(monkeypatch):
    """``substitute`` itself builds no polynomial sum and no constant polynomial;
    a constant term and a cancelling pair are summed in the accumulator."""
    import sys

    calls = []
    for name in ("__add__", "__radd__", "const"):
        method = getattr(MultiPoly, name)

        def counted(*args, _name=name, _method=method):
            if sys._getframe(1).f_code.co_name == "substitute":
                calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(MultiPoly, name, staticmethod(counted) if name == "const" else counted)
    u, v = (MultiPoly(UV, {e: gq(1)}) for e in ((1, 0), (0, 1)))
    p = MultiPoly(XYZ, {(2, 0, 0): gq(1), (0, 1, 0): gq(-1), (0, 0, 0): gq(3), (0, 0, -1): gq(2)})
    images = {"x": MultiPoly(UV, {(1, 0): gq(1), (0, 1): gq(1)}), "y": u * u, "z": v.scale(2)}
    calls.clear()
    got = p.substitute(images)
    assert calls == []
    assert str(got) == "(2*u*v^2 + v^3 + 3*v + 1) / (v)"


WEIGHTED_VARS = ("z0", "z1", "lam")


@st.composite
def weighted_laurents(draw):
    """A Laurent polynomial in z0, z1 (exponents 0..3) and lam (-2..2), with weights."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = (draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(-2, 2)))
        terms[expo] = draw(coeffs)
    weights = {name: draw(st.integers(-1, 2)) for name in WEIGHTED_VARS}
    return MultiPoly(WEIGHTED_VARS, terms), weights


@given(weighted_laurents())
@settings(max_examples=80)
def test_weighted_degrees_match_the_substitution_oracle(case):
    p, weights = case
    want = naive_scaling_degrees(p, weights)
    assert p.weighted_degrees(weights) == want
    assert p.weighted_degree(weights) == (None if len(want) > 1 else next(iter(want), 0))
