"""Laurent polynomials in several variables: the ring Q(i)[u^±1].

Chart transitions, compatibility factors and canonical-bundle cocycles live
on chart overlaps, where the only denominators are coordinate monomials.  A
:class:`RationalFunction` is kept as ``num / den`` with ``den`` a monic
monomial sharing no monomial factor with ``num``, so equality compares the
pairs.  The constructor takes any polynomial denominator and divides ``num``
exactly by its non-monomial part; when that fails the quotient is not a
Laurent polynomial and it raises ``ArithmeticError``.  Division is the same
construction.  A zero denominator raises ``ZeroDivisionError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .poly import Exponent, MultiPoly, try_divide
from .scalars import ONE, GaussianRational, ScalarLike


def _low_exponent(p: MultiPoly) -> Exponent:
    """The exponent of the largest monomial dividing the nonzero polynomial ``p``."""
    return tuple(map(min, zip(*p.terms)))


def _shift_down(p: MultiPoly, expo: Exponent) -> MultiPoly:
    """``p`` divided by the monomial with exponent ``expo`` (which must divide it)."""
    if not any(expo):
        return p
    return MultiPoly(
        p.vars, {tuple(e - s for e, s in zip(k, expo)): c for k, c in p.terms.items()}
    )


class RationalFunction:
    """A Laurent polynomial ``num / den`` with ``den`` a monic monomial."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = num.aligned(den)
        low = (0,) * len(num.vars)
        if not num.is_zero():
            low = _low_exponent(den)
            rest = _shift_down(den, low)
            if rest != ONE:
                quotient = try_divide(num, rest)
                if quotient is None:
                    raise ArithmeticError(f"({num}) / ({den}) is not a Laurent polynomial")
                num = quotient
            common = tuple(map(min, low, _low_exponent(num)))
            num = _shift_down(num, common)
            low = tuple(a - b for a, b in zip(low, common))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", MultiPoly(num.vars, {low: ONE}))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_poly(poly: MultiPoly) -> "RationalFunction":
        return RationalFunction(poly, MultiPoly.const(1, poly.vars))

    @staticmethod
    def const(value: ScalarLike) -> "RationalFunction":
        return RationalFunction.from_poly(MultiPoly.const(value))

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction.from_poly(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction.const(other)
        raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            return (RationalFunction.const(1) / self) ** (-k)
        out = RationalFunction.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus -------------------------------------------------------------

    def diff(self, var: str) -> "RationalFunction":
        if var not in self.num.vars:
            return RationalFunction.const(0)
        n, d = self.num, self.den
        return RationalFunction(n.diff(var) * d - n * d.diff(var), d * d)

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable")

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self!s})"


def compose_rational(poly: MultiPoly, bindings: Mapping[str, RationalFunction]) -> RationalFunction:
    """Evaluate a polynomial at rational-function arguments.

    Unbound variables stay as themselves.
    """
    out = RationalFunction.const(0)
    images = {
        name: bindings.get(name, RationalFunction.from_poly(MultiPoly.variable(name)))
        for name in poly.vars
    }
    for expo, coeff in poly.terms.items():
        term = RationalFunction.const(coeff)
        for idx, k in enumerate(expo):
            if k:
                term = term * images[poly.vars[idx]] ** k
        out = out + term
    return out
