"""Gaussian rational scalars: the exact coefficient field for the whole package.

A :class:`GaussianRational` is ``(a + b*i) / d`` stored as three ints with
``d > 0`` and ``gcd(a, b, d) == 1``.  That form is canonical, so equality of
two scalars is equality of their integer triples and every computation
downstream is bit-exact.  The triple is the public read-only slot
``triple``, and :func:`from_triple` is the one public builder from ints: it
divides any triple with ``d > 0`` through by its gcd.  Code outside this
module that works on triples reads and builds scalars through those two:
the sampler builds each drawn scalar once, the Lie layer its rescaled
constants and the triple products of a bracket, and the sum loops of
:mod:`contactcheck.linalg` work on the triples in ints and pay one gcd and
one scalar per stored term of their sum, not one per operator.  Each
operation here does its integer arithmetic and at most one
``math.gcd(a, b, d)``, skipped when ``d == 1``; results are built without
going through ``__init__``.  The ``fractions.Fraction`` parts ``re`` and
``im`` are built from the triple on each read and are not kept; they and
``str`` and ``repr`` read exactly as for a pair of ``Fraction`` parts.
``hash`` agrees with ``==``: a real scalar hashes as its rational value, any
other as the pair ``(re, im)``.  Only exact input is read: a part, or a
plain operand of an arithmetic operator, is an ``int`` (``bool`` included)
or a ``Fraction``, and anything else, a float, string or ``Decimal`` among
them, raises ``TypeError``.  An operand of another of the package's value
types, such as a :class:`~contactcheck.poly.MultiPoly`, makes the operator
return ``NotImplemented``, so that type's reflected operator runs:
``ONE * p`` is ``p * ONE``.

:class:`Immutable` is the base of every value type of the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]
Triple = Tuple[int, int, int]


class Immutable:
    """Base of the package's value types: no attribute is set or deleted after
    construction.  Constructors, and a chart filling its two caches, write
    slots through ``object.__setattr__`` or the slot descriptors, which this
    guard does not see."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class GaussianRational(Immutable):
    """An element of Q(i), stored as the canonical triple ``(a, b, d)``."""

    # ``triple`` is the canonical ``(a, b, d)``, public and read-only.
    __slots__ = ("triple",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        a, p = _ratio(re)
        b, q = _ratio(im)
        if p == q:
            _set_triple(self, (a, b, p))
        else:
            # Both parts are in lowest terms, so over their lcm the triple is too.
            g = gcd(p, q)
            _set_triple(self, (a * (q // g), b * (p // g), p // g * q))

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    # -- parts --------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        a, _, d = self.triple
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self.triple
        return Fraction(b, d)

    def integer(self) -> Optional[int]:
        """The value as an ``int`` when it is a rational integer, else None."""
        a, b, d = self.triple
        return a if not b and d == 1 else None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.triple == _ZERO_TRIPLE

    def __bool__(self) -> bool:
        return self.triple != _ZERO_TRIPLE

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        a1, b1, d1 = self.triple
        if type(other) is GaussianRational:
            a2, b2, d2 = other.triple
        elif type(other) is int:
            # gcd(a + o*d, b, d) == gcd(a, b, d) == 1: nothing to reduce.
            return _make(a1 + other * d1, b1, d1) if other else self
        elif (t := _triple(other)) is None:
            return NotImplemented
        else:
            a2, b2, d2 = t
        if d1 == d2:
            return from_triple(a1 + a2, b1 + b2, d1)
        return from_triple(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        a, b, d = self.triple
        return _make(-a, -b, d)

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        a1, b1, d1 = self.triple
        if type(other) is GaussianRational:
            a2, b2, d2 = other.triple
        elif (t := _triple(other)) is None:
            return NotImplemented
        else:
            a2, b2, d2 = t
        if d1 == d2:
            return from_triple(a1 - a2, b1 - b2, d1)
        return from_triple(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        t = _triple(other)
        if t is None:
            return NotImplemented
        a1, b1, d1 = t
        a2, b2, d2 = self.triple
        return from_triple(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        a1, b1, d1 = self.triple
        if type(other) is GaussianRational:
            a2, b2, d2 = other.triple
        elif (t := _triple(other)) is None:
            return NotImplemented
        else:
            a2, b2, d2 = t
        if not b1 and not b2:
            a, d = a1 * a2, d1 * d2
            if d != 1:
                g = gcd(a, d)
                if g != 1:
                    a //= g
                    d //= g
            return _make(a, 0, d)
        return from_triple(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self.triple
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            # gcd(d, a) == 1 already.
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        return from_triple(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is GaussianRational:
            return _quotient(self.triple, other.triple)
        t = _triple(other)
        return NotImplemented if t is None else _quotient(self.triple, t)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        t = _triple(other)
        return NotImplemented if t is None else _quotient(t, self.triple)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.triple == other.triple
        if isinstance(other, int):
            return self.triple == (other, 0, 1)
        if isinstance(other, Fraction):
            return self.triple == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # A real scalar equals its rational value, so it hashes as that value.
        a, b, d = self.triple
        if not b:
            return hash(a) if d == 1 else hash(self.re)
        if d == 1:
            # hash(Fraction(n)) == hash(n), so this is hash((re, im)).
            return hash((a, b))
        return hash((self.re, self.im))

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        # Canonical textual form: "0", "3/2", "i", "-2i", "1/2+3i", "1/2-3i".
        a, b, d = self.triple
        if not b:
            return _ratio_str(a, d)
        if b == d:
            imag = "i"
        elif b == -d:
            imag = "-i"
        else:
            imag = f"{_ratio_str(b, d)}i"
        if not a:
            return imag
        sign = "+" if b > 0 else ""
        return f"{_ratio_str(a, d)}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_triple = GaussianRational.triple.__set__
_ZERO_TRIPLE = (0, 0, 1)


def _make(a: int, b: int, d: int) -> GaussianRational:
    """A scalar from a triple that is already canonical."""
    z = _new(GaussianRational)
    _set_triple(z, (a, b, d))
    return z


def from_triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar ``(a + b*i) / d`` for ints with ``d > 0``, divided through by
    their gcd: the one builder that makes any triple canonical."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # Built here, not through _make: this runs once per stored term of every sum.
    z = _new(GaussianRational)
    _set_triple(z, (a, b, d))
    return z


def _quotient(num: Triple, den: Triple) -> GaussianRational:
    """``num / den``: (a1 + b1 i)/d1 over (a2 + b2 i)/d2, with one gcd."""
    a1, b1, d1 = num
    a2, b2, d2 = den
    if not b2:
        if not a2:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        if a2 < 0:
            a2, d2 = -a2, -d2
        return from_triple(a1 * d2, b1 * d2, d1 * a2)
    # (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
    return from_triple(
        (a1 * a2 + b1 * b2) * d2,
        (b1 * a2 - a1 * b2) * d2,
        d1 * (a2 * a2 + b2 * b2),
    )


def _ratio(value: RationalLike) -> Tuple[int, int]:
    """An ``int`` or ``Fraction`` part as ``(numerator, denominator)`` in lowest terms."""
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    raise TypeError(f"a scalar part must be an int or a Fraction, not {type(value).__name__}")


def _triple(value: RationalLike) -> Optional[Triple]:
    """The canonical triple of a plain rational operand; None for a value of
    another of the package's types, whose reflected operator is left to run."""
    if isinstance(value, Immutable):
        return None
    a, d = _ratio(value)
    return a, 0, d


def _ratio_str(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` without building the Fraction."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
