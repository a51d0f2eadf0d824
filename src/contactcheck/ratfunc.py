"""Rational functions num/den over the Gaussian rationals.

Used for chart transition functions and canonical-bundle cocycles, where
coordinate changes between projective charts are genuinely rational.  A
:class:`RationalFunction` is kept reduced (gcd of numerator and denominator
is a unit) with the denominator normalized to leading coefficient 1, and
equality is additionally decided by cross-multiplication so it never depends
on the reduction path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .poly import MultiPoly, poly_gcd, try_divide
from .scalars import GaussianRational, ScalarLike


class RationalFunction:
    """A reduced quotient of two multivariate polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = num._aligned(den)
        if num.is_zero():
            den = MultiPoly.const(1, num.vars)
        else:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num_r = try_divide(num, g)
                den_r = try_divide(den, g)
                assert num_r is not None and den_r is not None
                num, den = num_r, den_r
            if den.is_constant():
                num = num.scale(den.constant_value().inverse())
                den = MultiPoly.const(1, num.vars)
            else:
                from .poly import leading_term

                _, lead = leading_term(den)
                if lead != 1:
                    inv = lead.inverse()
                    num = num.scale(inv)
                    den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other) -> "RationalFunction":
        return self * self._coerce(other).inverse()

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            return self.inverse() ** (-k)
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
        n, d = self.num, self.den
        if var not in n.vars:
            n = n.with_vars((*n.vars, var))
            d = d.with_vars(n.vars)
        return RationalFunction(n.diff(var) * d - n * d.diff(var), d * d)

    def evaluate(self, point: Mapping[str, ScalarLike]) -> GaussianRational:
        den_value = self.den.evaluate(point)
        if den_value.is_zero():
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return self.num.evaluate(point) / den_value

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

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
