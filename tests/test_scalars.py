import operator
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcheck.poly import MultiPoly
from contactcheck.scalars import ONE, GaussianRational
from conftest import gq
from oracles import FractionPair

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_canonical_strings():
    assert str(gq(0)) == "0"
    assert str(gq(Fraction(3, 2))) == "3/2"
    assert str(gq(0, 1)) == "i"
    assert str(gq(0, -1)) == "-i"
    assert str(gq(0, 2)) == "2i"
    assert str(gq(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(gq(1, 1)) == "1+i"


def test_equality_is_canonical():
    assert gq(Fraction(2, 4)) == gq(Fraction(1, 2))
    assert gq(1) == 1
    assert hash(gq(Fraction(2, 4), 0)) == hash(gq(Fraction(1, 2)))


@pytest.mark.parametrize("value", [0, 1, -7, True, Fraction(1, 2), Fraction(-9, 4), Fraction(6, 3)])
def test_a_real_scalar_hashes_as_the_rational_it_equals(value):
    z = GaussianRational(value)
    assert z == value and hash(z) == hash(value)
    assert value in {z} and z in {value}
    assert {z: "x"}[value] == "x"


class _Rational(Fraction):
    pass


@pytest.mark.parametrize(
    "value, text",
    [(3, "3+3i"), (True, "1+i"), (Fraction(6, 8), "3/4+3/4i"), (_Rational(-6, 8), "-3/4-3/4i")],
    ids=["int", "bool", "Fraction", "Fraction-subclass"],
)
def test_parts_are_plain_fractions(value, text):
    z = GaussianRational(value, value)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    plain = GaussianRational(Fraction(value), Fraction(value))
    assert z == plain and hash(z) == hash(plain)
    assert str(z) == text


def test_division_and_inverse():
    z = gq(3, 4)
    assert z * z.inverse() == 1
    assert (z / z) == 1
    with pytest.raises(ZeroDivisionError):
        gq(0).inverse()


def test_powers():
    i = gq(0, 1)
    assert i**2 == -1
    assert i**-1 == -i
    assert gq(2) ** 10 == 1024


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    if not b.is_zero():
        assert (a / b) * b == a


# -- the integer kernel against a Fraction-pair reference -------------------------

#: Rational parts of every type the constructor takes: zero, negative parts,
#: bools, Fractions written unreduced, and a Fraction subclass.
SPECIAL_PARTS = [0, 1, -1, 2, -7, True, False, Fraction(6, 8), Fraction(-10, 12), Fraction(5, 3), _Rational(-9, 6)]


def seeded_parts(seed: int, count: int):
    rng = random.Random(seed)
    kinds = [int, Fraction, _Rational, bool]
    parts = []
    for _ in range(count):
        kind = rng.choice(kinds)
        num, den = rng.randint(-30, 30), rng.randint(1, 12) * rng.choice((1, 1, 2))
        if kind is int:
            parts.append(num)
        elif kind is bool:
            parts.append(rng.random() < 0.5)
        else:
            parts.append(kind(num, den))
    return parts


def operands():
    parts = SPECIAL_PARTS + seeded_parts(2024, 13)
    rng = random.Random(7)
    pairs = [(re, im) for re in SPECIAL_PARTS for im in (0, Fraction(1, 6), -1)]
    pairs += [(rng.choice(parts), rng.choice(parts)) for _ in range(20)]
    return pairs


OPERANDS = operands()
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
part_values = st.one_of(
    st.integers(-60, 60), st.booleans(), rationals, rationals.map(lambda q: _Rational(q))
)


def assert_agrees(z: GaussianRational, ref: FractionPair) -> None:
    """``z`` reads, prints and hashes exactly like the reference value."""
    assert type(z) is GaussianRational
    assert str(z) == str(ref)
    assert hash(z) == hash(ref)
    assert (z.re, z.im) == (ref.re, ref.im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert repr(z) == f"GaussianRational({ref.re!r}, {ref.im!r})"
    # Equal values compare equal whichever way they were built: the stored
    # form is canonical.
    assert z == GaussianRational(ref.re, ref.im)
    assert bool(z) is not ref.is_zero() and z.is_zero() is ref.is_zero()
    integral = ref.im == 0 and ref.re.denominator == 1
    assert z.integer() == (int(ref.re) if integral else None)
    assert (z == ref.re) is (ref.im == 0)
    assert (z == int(ref.re)) is integral
    assert z != z + 1


def check_unary(re, im) -> None:
    z, ref = GaussianRational(re, im), FractionPair(re, im)
    assert_agrees(z, ref)
    assert_agrees(-z, -ref)
    for k in range(0, 5):
        assert_agrees(z**k, ref**k)
    if ref.is_zero():
        for call in (z.inverse, lambda: z**-1, lambda: 1 / z, lambda: z / z):
            with pytest.raises(ZeroDivisionError):
                call()
        return
    assert_agrees(z.inverse(), ref.inverse())
    for k in range(-3, 0):
        assert_agrees(z**k, ref**k)


def check_binary(x, y) -> None:
    (xr, xi), (yr, yi) = x, y
    zx, zy = GaussianRational(xr, xi), GaussianRational(yr, yi)
    rx, ry = FractionPair(xr, xi), FractionPair(yr, yi)
    assert (zx == zy) is (rx.re == ry.re and rx.im == ry.im)
    # A bare rational on either side reads as a real scalar.
    cases = [(zx, zy, rx, ry), (zx, yr, rx, FractionPair(yr)), (yr, zx, FractionPair(yr), rx)]
    for name, op in BINARY.items():
        for left, right, ref_left, ref_right in cases:
            if name == "/" and ref_right.is_zero():
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
            else:
                assert_agrees(op(left, right), op(ref_left, ref_right))


def test_seeded_operands_cover_every_part_type():
    kinds = {type(part) for pair in OPERANDS for part in pair}
    assert kinds == {int, bool, Fraction, _Rational}
    assert any(GaussianRational(*pair).is_zero() for pair in OPERANDS)


@pytest.mark.parametrize("operand", OPERANDS, ids=lambda pair: f"{pair[0]!s}|{pair[1]!s}")
def test_unary_operations_match_fraction_pairs(operand):
    check_unary(*operand)


def test_binary_operations_match_fraction_pairs():
    for x in OPERANDS:
        for y in OPERANDS:
            check_binary(x, y)


@given(part_values, part_values)
@settings(max_examples=150, deadline=None)
def test_unary_operations_match_fraction_pairs_on_drawn_operands(re, im):
    check_unary(re, im)


@given(part_values, part_values, part_values, part_values)
@settings(max_examples=150, deadline=None)
def test_binary_operations_match_fraction_pairs_on_drawn_operands(xr, xi, yr, yi):
    check_binary((xr, xi), (yr, yi))


@pytest.mark.parametrize("name", ["re", "im", "_v", "_re", "_im", "other"])
def test_setting_any_attribute_raises(name):
    built = GaussianRational(Fraction(1, 2), 3)
    for z in (built, built * built, built + 1, -built, built.inverse()):
        with pytest.raises(AttributeError):
            setattr(z, name, Fraction(1))
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert built == GaussianRational(Fraction(1, 2), 3) and str(built) == "1/2+3i"


@pytest.mark.parametrize("value", [0.5, 1.0, "1/2", Decimal("0.5"), None], ids=repr)
def test_an_inexact_part_is_rejected(value):
    """Only ``int`` and ``Fraction`` parts: no float, string or Decimal is read as a rational."""
    message = f"must be an int or a Fraction, not {type(value).__name__}"
    one = GaussianRational(1)
    uses = [
        lambda: GaussianRational(value),
        lambda: GaussianRational(1, value),
        lambda: GaussianRational.coerce(value),
        lambda: MultiPoly(("x",), {(1,): value}),
        lambda: one + value, lambda: value + one,
        lambda: one - value, lambda: value - one,
        lambda: one * value, lambda: value * one,
        lambda: one / value, lambda: value / one,
    ]
    for use in uses:
        with pytest.raises(TypeError, match=message):
            use()


def test_a_polynomial_operand_runs_its_reflected_operator():
    """A scalar on the left of a ``MultiPoly`` returns ``NotImplemented``, so the
    polynomial's reflected operator runs: ``ONE * p`` is ``p * ONE``."""
    x = MultiPoly.variable("x", ("x", "y"))
    p = x * x - x * GaussianRational(0, 1) + 3
    unit = x * GaussianRational(Fraction(1, 2), -2)
    for c in (ONE, GaussianRational(Fraction(-3, 4), 5)):
        assert c * p == p * c
        assert c + p == p + c
        assert c - p == -(p - c)
        assert c / unit == unit**-1 * c
    assert ONE / unit == unit**-1
    with pytest.raises(ArithmeticError, match="the divisor is not a unit"):
        ONE / p
