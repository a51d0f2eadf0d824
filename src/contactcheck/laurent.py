"""Laurent polynomials in one distinguished fiber variable.

A :class:`LaurentPoly` is a finite sum ``sum_k  p_k * fiber^k`` where ``k``
ranges over (possibly negative) integers and each ``p_k`` is a
:class:`~contactcheck.poly.MultiPoly` in the base variables.  Only the fiber
variable is ever inverted; base variables stay polynomial.  Charts without a
fiber variable use ``fiber=None`` and are restricted to exponent ``0``, so
one coefficient type serves the whole exterior calculus.

``parts`` never holds a zero polynomial.  The public constructor checks every
part it is given (the fiber exponent, the fiber leak, the zero filter); the
results of arithmetic are already in that canonical form and are wrapped by
the private ``LaurentPoly._make`` without being checked again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .poly import MultiPoly
from .scalars import GaussianRational, ScalarLike, ZERO


def _check_no_leak(fiber: Optional[str], poly: MultiPoly) -> None:
    if fiber is not None and fiber in poly.vars and poly.degree_in(fiber) > 0:
        raise ValueError("fiber variable leaked into a base coefficient")


class LaurentPoly:
    """``sum_k base_k * fiber^k`` with exact MultiPoly coefficients."""

    __slots__ = ("fiber", "parts")

    def __init__(self, fiber: Optional[str], parts: Optional[Mapping[int, MultiPoly]] = None):
        object.__setattr__(self, "fiber", fiber)
        clean: Dict[int, MultiPoly] = {}
        if parts:
            for k, poly in parts.items():
                if fiber is None and k != 0:
                    raise ValueError("fiberless chart cannot carry fiber exponents")
                _check_no_leak(fiber, poly)
                if not poly.is_zero():
                    clean[k] = poly
        object.__setattr__(self, "parts", clean)

    @staticmethod
    def _make(fiber: Optional[str], parts: Dict[int, MultiPoly]) -> "LaurentPoly":
        """Wrap canonical data unchecked: no zero part and no fiber inside a part."""
        out = object.__new__(LaurentPoly)
        object.__setattr__(out, "fiber", fiber)
        object.__setattr__(out, "parts", parts)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_poly(poly: MultiPoly, fiber: Optional[str] = None) -> "LaurentPoly":
        """Lift a polynomial; occurrences of the fiber variable become exponents."""
        if fiber is None or fiber not in poly.vars:
            return LaurentPoly(fiber, {0: poly})
        idx = poly.vars.index(fiber)
        rest = tuple(v for v in poly.vars if v != fiber)
        parts: Dict[int, Dict[Tuple[int, ...], GaussianRational]] = {}
        for expo, coeff in poly.terms.items():
            k = expo[idx]
            base_expo = tuple(e for i, e in enumerate(expo) if i != idx)
            parts.setdefault(k, {})[base_expo] = coeff
        return LaurentPoly(fiber, {k: MultiPoly(rest, t) for k, t in parts.items()})

    @staticmethod
    def const(value: ScalarLike, fiber: Optional[str] = None) -> "LaurentPoly":
        return LaurentPoly(fiber, {0: MultiPoly.const(value)})

    @staticmethod
    def fiber_power(fiber: str, k: int, value: ScalarLike = 1) -> "LaurentPoly":
        return LaurentPoly(fiber, {k: MultiPoly.const(value)})

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_constant(self) -> bool:
        return self.is_zero() or (set(self.parts) == {0} and self.parts[0].is_constant())

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return ZERO
        return self.parts[0].constant_value()

    def base_part(self) -> MultiPoly:
        """The base polynomial of an element free of the fiber; ``ValueError`` otherwise."""
        if self.parts.keys() - {0}:
            raise ValueError(f"{self} depends on the fiber variable {self.fiber}")
        return self.parts.get(0, MultiPoly.zero(()))

    def is_unit(self) -> bool:
        """Whether this is ``c * fiber^k`` with ``c != 0``, a unit of the Laurent ring."""
        return len(self.parts) == 1 and next(iter(self.parts.values())).is_constant()

    def min_exp(self) -> int:
        return 0 if self.is_zero() else min(self.parts)

    def max_exp(self) -> int:
        return 0 if self.is_zero() else max(self.parts)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.fiber != self.fiber:
                if other.fiber is not None and self.fiber is not None:
                    raise ValueError(f"fiber mismatch: {self.fiber} vs {other.fiber}")
                # Results are built unchecked, so the fiberless operand must not
                # carry the other's fiber variable.
                fiber, plain = (self.fiber, other) if other.fiber is None else (other.fiber, self)
                for poly in plain.parts.values():
                    _check_no_leak(fiber, poly)
            return other
        if isinstance(other, MultiPoly):
            return LaurentPoly.from_poly(other, self.fiber)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return LaurentPoly.const(other, self.fiber)
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def _fiber_of(self, other: "LaurentPoly") -> Optional[str]:
        return self.fiber if self.fiber is not None else other.fiber

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        parts = dict(self.parts)
        for k, poly in o.parts.items():
            acc = parts.get(k)
            if acc is None:
                parts[k] = poly
                continue
            acc = acc + poly
            if acc.is_zero():
                del parts[k]
            else:
                parts[k] = acc
        return LaurentPoly._make(self._fiber_of(o), parts)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(self.fiber, {k: -p for k, p in self.parts.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        parts: Dict[int, MultiPoly] = {}
        for k1, p1 in self.parts.items():
            for k2, p2 in o.parts.items():
                k = k1 + k2
                acc = parts.get(k)
                parts[k] = p1 * p2 if acc is None else acc + p1 * p2
        # A product of nonzero polynomials is nonzero; only cancelled sums drop.
        return LaurentPoly._make(
            self._fiber_of(o), {k: p for k, p in parts.items() if not p.is_zero()}
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPoly":
        """Exact division by a unit ``c * fiber^k``; any other divisor raises."""
        o = self._coerce(other)
        if not o.is_unit():
            raise ZeroDivisionError(f"{o} is not a unit of the Laurent ring")
        k = o.min_exp()
        c = o.parts[k].constant_value().inverse()
        return LaurentPoly(
            self._fiber_of(o), {j - k: p.scale(c) for j, p in self.parts.items()}
        )

    def scale(self, value: ScalarLike) -> "LaurentPoly":
        c = GaussianRational.coerce(value)
        if c.is_zero():
            return LaurentPoly(self.fiber, {})
        return LaurentPoly(self.fiber, {k: p.scale(c) for k, p in self.parts.items()})

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a LaurentPoly")
        out = LaurentPoly.const(1, self.fiber)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus -------------------------------------------------------------

    def diff(self, var: str) -> "LaurentPoly":
        """Formal partial derivative; ``var`` may be the fiber variable."""
        if var == self.fiber:
            parts: Dict[int, MultiPoly] = {}
            for k, poly in self.parts.items():
                if k == 0:
                    continue
                parts[k - 1] = poly.scale(k)
            return LaurentPoly._make(self.fiber, parts)
        out: Dict[int, MultiPoly] = {}
        for k, poly in self.parts.items():
            if var not in poly.vars:
                continue
            d = poly.diff(var)
            if not d.is_zero():
                out[k] = d
        return LaurentPoly._make(self.fiber, out)

    def substitute_base(self, bindings: Mapping[str, MultiPoly]) -> "LaurentPoly":
        """Substitute base variables only; the fiber exponent is untouched."""
        if self.fiber is not None and self.fiber in bindings:
            raise ValueError("substitute_base cannot bind the fiber variable")
        return LaurentPoly(
            self.fiber, {k: p.substitute(bindings) for k, p in self.parts.items()}
        )

    def evaluate(self, point: Mapping[str, ScalarLike]) -> GaussianRational:
        fiber_value: Optional[GaussianRational] = None
        if self.fiber is not None:
            if self.fiber not in point:
                raise ValueError(f"no value supplied for fiber {self.fiber!r}")
            fiber_value = GaussianRational.coerce(point[self.fiber])
            if fiber_value.is_zero() and self.min_exp() < 0:
                raise ZeroDivisionError("fiber value 0 with negative Laurent exponent")
        out: Optional[GaussianRational] = None
        for k, poly in self.parts.items():
            value = poly.evaluate(point)
            if k and fiber_value is not None:
                value = value * fiber_value**k
            out = value if out is None else out + value
        return ZERO if out is None else out

    # -- structure ------------------------------------------------------------

    def weighted_parts(self, weights: Mapping[str, int]) -> Dict[int, "LaurentPoly"]:
        """Split into weighted-homogeneous components (fiber weight included)."""
        w_fiber = weights.get(self.fiber, 0) if self.fiber is not None else 0
        out: Dict[int, Dict[int, MultiPoly]] = {}
        for k, poly in self.parts.items():
            for deg, comp in poly.weighted_parts(weights).items():
                total = deg + w_fiber * k
                slot = out.setdefault(total, {})
                slot[k] = slot.get(k, MultiPoly.zero(comp.vars)) + comp
        return {deg: LaurentPoly(self.fiber, parts) for deg, parts in out.items()}

    def weighted_degree(self, weights: Mapping[str, int]) -> Optional[int]:
        """The weighted degree if homogeneous, ``None`` otherwise (0 for the zero element)."""
        if self.is_zero():
            return 0
        parts = self.weighted_parts(weights)
        if len(parts) != 1:
            return None
        return next(iter(parts))

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, MultiPoly)):
            other = self._coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.fiber is not None and other.fiber is not None and self.fiber != other.fiber:
            return False
        if set(self.parts) != set(other.parts):
            return False
        return all(self.parts[k] == other.parts[k] for k in self.parts)

    def __hash__(self):
        raise TypeError("LaurentPoly is not hashable")

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for k in sorted(self.parts, reverse=True):
            poly = self.parts[k]
            if k == 0:
                pieces.append(str(poly))
                continue
            head = self.fiber if k == 1 else f"{self.fiber}^{k}"
            body = str(poly)
            if poly.is_constant():
                c = poly.constant_value()
                if c == 1:
                    pieces.append(head)
                    continue
                if c == -1:
                    pieces.append(f"-{head}")
                    continue
                body = str(c)
            pieces.append(f"{head}*({body})")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.fiber!r}, {self!s})"
