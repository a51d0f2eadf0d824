from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcheck.scalars import GaussianRational
from conftest import gq

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


def test_fraction_parts_are_kept_not_rebuilt():
    re, im = Fraction(1, 3), Fraction(-2, 5)
    z = GaussianRational(re, im)
    assert z.re is re and z.im is im
    assert str(z) == "1/3-2/5i"


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


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_conjugation_norm(a):
    assert (a * a.conjugate()).is_real()
    assert (a * a.conjugate()).re == a.norm_sq()
