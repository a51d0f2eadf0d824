"""Sparse Laurent polynomials over the Gaussian rationals: the ring Q(i)[u^±1].

A :class:`MultiPoly` stores an ordered variable tuple and a dictionary from
exponent vectors (tuples of ints, one slot per variable) to nonzero
:class:`~contactcheck.scalars.GaussianRational` coefficients.  An exponent
may be negative; a polynomial is the case where none is.  It is the one
coefficient ring of the package.  Chart transitions, compatibility factors
and canonical-bundle cocycles live in it, on chart overlaps, where the only
denominators are coordinate monomials; so do chart coefficients, elements of
the subring Q(i)[base][fiber^±1] spelled over their chart's variables (see
:class:`~contactcheck.forms.ChartSpace`).  Two elements over different
variable lists are aligned on demand by taking the union of their names, so
``x + 1`` over ``(x,)`` and ``-x - 1`` over ``(x, y)`` add to the zero
polynomial.

Division is exact: ``a / b`` is the Laurent polynomial ``q`` with ``a = q *
b``.  When there is none it raises ``ArithmeticError``, and a zero divisor
raises ``ZeroDivisionError``.  A single-term divisor ``c * u^e`` is a unit, so
dividing by it is a shift and a scale; a negative power exists exactly for
such a unit.

``terms`` never holds a zero coefficient.  The public constructor checks every
exponent and coefficient it is given; the results of arithmetic are already in
that canonical form and are wrapped by the private ``MultiPoly._make`` without
being checked again.  Sums store a monomial met for the first time as it is
and add only where both operands carry it, so no sum starts from zero.

Canonical textual serialization (used by the CLI and by failure witnesses):
variables print in their natural order -- names compared chunk by chunk,
digit runs as numbers, so ``z2`` comes before ``z10`` -- whatever order the
polynomial stores them in; terms are sorted graded-lexicographically, highest
first -- larger total degree wins, ties broken by the exponents read in that
natural variable order -- and the imaginary unit prints as ``i``.  Equal
polynomials therefore print alike.  Example::

    (1/2+i)*x^2*y + (-3)*z + 2i

An element with a negative exponent prints as ``(num) / (den)``: ``den`` is
the monic monomial that clears the negative exponents, so ``num`` is a
polynomial sharing no variable with it in its monomial content, as in
``(1/2*x - 1/2*y) / (x*y)``.

The format is stable across releases.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .scalars import GaussianRational, ScalarLike, ZERO, ONE

Exponent = Tuple[int, ...]
TermMap = Dict[Exponent, GaussianRational]


def _natural_key(name: str) -> List[object]:
    """Sort key of a variable name: text chunks as text, digit runs as numbers."""
    return [int(chunk) if k % 2 else chunk for k, chunk in enumerate(re.split(r"(\d+)", name))]


def _merge_vars(a: Sequence[str], b: Sequence[str]) -> Tuple[str, ...]:
    out = list(a)
    seen = set(a)
    for name in b:
        if name not in seen:
            out.append(name)
            seen.add(name)
    return tuple(out)


class MultiPoly:
    """Sparse Laurent polynomial in named variables with Gaussian-rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Optional[TermMap] = None):
        object.__setattr__(self, "vars", tuple(variables))
        clean: TermMap = {}
        if terms:
            width = len(self.vars)
            for expo, coeff in terms.items():
                if len(expo) != width:
                    raise ValueError(f"exponent {expo} does not match variables {self.vars}")
                coeff = GaussianRational.coerce(coeff)
                if not coeff.is_zero():
                    clean[tuple(expo)] = coeff
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _make(variables: Tuple[str, ...], terms: TermMap) -> "MultiPoly":
        """Wrap canonical data unchecked: exponents of the right width and no zero."""
        poly = object.__new__(MultiPoly)
        object.__setattr__(poly, "vars", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str] = ()) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def const(value: ScalarLike, variables: Sequence[str] = ()) -> "MultiPoly":
        c = GaussianRational.coerce(value)
        variables = tuple(variables)
        if c.is_zero():
            return MultiPoly(variables, {})
        return MultiPoly(variables, {(0,) * len(variables): c})

    @staticmethod
    def variable(name: str, variables: Optional[Sequence[str]] = None) -> "MultiPoly":
        if variables is None:
            variables = (name,)
        variables = tuple(variables)
        expo = [0] * len(variables)
        expo[variables.index(name)] = 1
        return MultiPoly(variables, {tuple(expo): ONE})

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express this polynomial over a superset of its variables."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        positions = []
        for name in self.vars:
            if name not in variables:
                raise ValueError(f"variable {name} missing from target list {variables}")
            positions.append(variables.index(name))
        width = len(variables)
        terms: TermMap = {}
        for expo, coeff in self.terms.items():
            new = [0] * width
            for src, dst in enumerate(positions):
                new[dst] = expo[src]
            terms[tuple(new)] = coeff
        return MultiPoly._make(variables, terms)

    def aligned(self, other: "MultiPoly") -> Tuple["MultiPoly", "MultiPoly"]:
        """Both polynomials over one variable tuple: this one's, then ``other``'s new names."""
        if self.vars == other.vars:
            return self, other
        union = _merge_vars(self.vars, other.vars)
        return self.with_vars(union), other.with_vars(union)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(expo) for expo in self.terms)

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce_operand(other)
        a, b = self.aligned(other)
        terms = dict(a.terms)
        for expo, coeff in b.terms.items():
            acc = terms.get(expo)
            if acc is None:
                terms[expo] = coeff
                continue
            acc = acc + coeff
            if acc.is_zero():
                del terms[expo]
            else:
                terms[expo] = acc
        return MultiPoly._make(a.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce_operand(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce_operand(other)
        a, b = self.aligned(other)
        terms: TermMap = {}
        add = operator.add
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                expo = tuple(map(add, e1, e2))
                acc = terms.get(expo)
                terms[expo] = c1 * c2 if acc is None else acc + c1 * c2
        # A product of nonzero coefficients is nonzero; only cancelled sums drop.
        return MultiPoly._make(a.vars, {e: c for e, c in terms.items() if not c.is_zero()})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        """The exact Laurent quotient; ``ArithmeticError`` when there is none.

        A single-term divisor ``c * u^e`` is a unit: the quotient is a shift by
        ``-e`` and a scale by ``1/c``.  Otherwise the divisor's monomial content
        shifts out, and what is left is not divisible by any variable, so it
        must divide the dividend, made a polynomial by its own monomial
        content, exactly.
        """
        other = self._coerce_operand(other)
        if other.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        num, den = self.aligned(other)
        if num.is_zero():
            return num
        if len(den.terms) == 1:
            ((expo, c),) = den.terms.items()
            inv = c.inverse()
            sub = operator.sub
            return MultiPoly._make(
                num.vars, {tuple(map(sub, k, expo)): v * inv for k, v in num.terms.items()}
            )
        low_num, low_den = _low_exponent(num), _low_exponent(den)
        quotient = try_divide(_shifted(num, low_num), _shifted(den, low_den))
        if quotient is None:
            raise ArithmeticError(f"({self}) / ({other}) is not a Laurent polynomial")
        return _shifted(quotient, tuple(map(operator.sub, low_den, low_num)))

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            return (MultiPoly.const(1, self.vars) / self) ** -k
        out = MultiPoly.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, value: ScalarLike) -> "MultiPoly":
        c = GaussianRational.coerce(value)
        if c.is_zero():
            return MultiPoly.zero(self.vars)
        return MultiPoly._make(self.vars, {e: coeff * c for e, coeff in self.terms.items()})

    def _coerce_operand(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return MultiPoly.const(other, self.vars)
        raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")

    # -- calculus -------------------------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``var``."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}; have {self.vars}")
        idx = self.vars.index(var)
        # Lowering one exponent is injective, so each term lands on its own key.
        terms: TermMap = {}
        for expo, coeff in self.terms.items():
            k = expo[idx]
            if k:
                key = expo[:idx] + (k - 1,) + expo[idx + 1 :]
                terms[key] = coeff if k == 1 else coeff * k
        return MultiPoly._make(self.vars, terms)

    def substitute(self, bindings: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Ring homomorphism sending each bound variable to its image polynomial.

        Unbound variables map to themselves.  The result lives over the union
        of the surviving variables and the image variables.
        """
        images: Dict[str, MultiPoly] = {}
        result_vars: Tuple[str, ...] = ()
        for name in self.vars:
            img = bindings.get(name)
            if img is None:
                img = MultiPoly.variable(name)
            images[name] = img
            result_vars = _merge_vars(result_vars, img.vars)
        out = MultiPoly.zero(result_vars)
        for expo, coeff in self.terms.items():
            term = MultiPoly.const(coeff, result_vars)
            for idx, k in enumerate(expo):
                if k:
                    term = term * images[self.vars[idx]] ** k
            out = out + term
        return out

    def evaluate(self, point: Mapping[str, ScalarLike]) -> GaussianRational:
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"no value supplied for {missing}")
        values = [GaussianRational.coerce(point[v]) for v in self.vars]
        out: Optional[GaussianRational] = None
        for expo, coeff in self.terms.items():
            acc = coeff
            for value, k in zip(values, expo):
                if k:
                    acc = acc * value**k
            out = acc if out is None else out + acc
        return ZERO if out is None else out

    # -- degree bookkeeping -----------------------------------------------------

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0
        idx = self.vars.index(var)
        if not self.terms:
            return -1
        return max(expo[idx] for expo in self.terms)

    def coefficient_of(self, exponents: Mapping[str, int]) -> GaussianRational:
        """Coefficient of the monomial given by a name -> exponent map."""
        for name in exponents:
            if exponents[name] and name not in self.vars:
                return ZERO
        key = tuple(exponents.get(name, 0) for name in self.vars)
        return self.terms.get(key, ZERO)

    def weighted_parts(self, weights: Mapping[str, int]) -> Dict[int, "MultiPoly"]:
        """Split into weighted-homogeneous components keyed by weighted degree."""
        w = [weights.get(name, 0) for name in self.vars]
        parts: Dict[int, TermMap] = {}
        for expo, coeff in self.terms.items():
            deg = sum(wi * e for wi, e in zip(w, expo))
            parts.setdefault(deg, {})[expo] = coeff
        return {deg: MultiPoly._make(self.vars, terms) for deg, terms in parts.items()}

    def weighted_degree(self, weights: Mapping[str, int]) -> Optional[int]:
        """The weighted degree if homogeneous, ``None`` otherwise (0 for the zero polynomial)."""
        parts = self.weighted_parts(weights)
        if len(parts) > 1:
            return None
        return next(iter(parts), 0)

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self.aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable; compare canonical strings if needed")

    def _natural_slots(self) -> List[int]:
        """Variable slots in the natural order of their names."""
        return sorted(range(len(self.vars)), key=lambda k: _natural_key(self.vars[k]))

    def sorted_terms(self) -> Iterable[Tuple[Exponent, GaussianRational]]:
        """Terms in canonical graded-lex order (natural variable order), highest first."""
        slots = self._natural_slots()
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), [item[0][k] for k in slots]),
            reverse=True,
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        den = tuple(max(0, -e) for e in _low_exponent(self))
        if any(den):
            num = _shifted(self, tuple(-e for e in den))
            return f"({num}) / ({MultiPoly._make(self.vars, {den: ONE})})"
        slots = self._natural_slots()
        pieces = []
        for expo, coeff in self.sorted_terms():
            factors = [
                self.vars[s] if expo[s] == 1 else f"{self.vars[s]}^{expo[s]}"
                for s in slots
                if expo[s]
            ]
            if not factors:
                pieces.append(str(coeff))
                continue
            body = "*".join(factors)
            if coeff == 1:
                pieces.append(body)
            elif coeff == -1:
                pieces.append(f"-{body}")
            else:
                text = str(coeff)
                if "+" in text[1:] or "-" in text[1:]:
                    text = f"({text})"
                pieces.append(f"{text}*{body}")
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-") and not piece.startswith("(-"):
                out += f" - {piece[1:]}"
            else:
                out += f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {self!s})"


# -- exact division ------------------------------------------------------------


def _low_exponent(p: MultiPoly) -> Exponent:
    """The exponent of the monomial content of the nonzero ``p``: each variable's lowest."""
    return tuple(map(min, zip(*p.terms)))


def _shifted(p: MultiPoly, expo: Exponent) -> MultiPoly:
    """``p`` divided by the monomial with exponent ``expo``."""
    if not any(expo):
        return p
    return MultiPoly._make(
        p.vars, {tuple(map(operator.sub, k, expo)): c for k, c in p.terms.items()}
    )


def _grlex_key(expo: Exponent) -> Tuple[int, Exponent]:
    return (sum(expo), expo)


def leading_term(p: MultiPoly) -> Tuple[Exponent, GaussianRational]:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    expo = max(p.terms, key=_grlex_key)
    return expo, p.terms[expo]


def try_divide(num: MultiPoly, den: MultiPoly) -> Optional[MultiPoly]:
    """Return the polynomial ``num / den`` of two polynomials when it exists, else ``None``."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    num, den = num.aligned(den)
    if num.is_zero():
        return num
    quot = MultiPoly.zero(num.vars)
    rem = num
    d_expo, d_coeff = leading_term(den)
    d_inv = d_coeff.inverse()
    while not rem.is_zero():
        r_expo, r_coeff = leading_term(rem)
        diff = tuple(r - d for r, d in zip(r_expo, d_expo))
        if any(e < 0 for e in diff):
            return None
        piece = MultiPoly(num.vars, {diff: r_coeff * d_inv})
        quot = quot + piece
        rem = rem - piece * den
    return quot
