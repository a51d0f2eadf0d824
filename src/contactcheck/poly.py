"""Sparse multivariate polynomials over the Gaussian rationals.

A :class:`MultiPoly` stores an ordered variable tuple and a dictionary from
exponent vectors (tuples of non-negative ints, one slot per variable) to
nonzero :class:`~contactcheck.scalars.GaussianRational` coefficients.  Two
polynomials over different variable lists are aligned on demand by taking the
union of their names, so ``x + 1`` over ``(x,)`` and ``-x - 1`` over
``(x, y)`` add to the zero polynomial.

Canonical textual serialization (used by the CLI and by failure witnesses):
terms are sorted graded-lexicographically, highest first -- larger total
degree wins, ties broken by the exponent tuple in the polynomial's variable
order -- and the imaginary unit prints as ``i``.  Example::

    (1/2+i)*x^2*y + (-3)*z + 2i

The format is stable across releases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .scalars import GaussianRational, ScalarLike, ZERO, ONE

Exponent = Tuple[int, ...]
TermMap = Dict[Exponent, GaussianRational]


def _merge_vars(a: Sequence[str], b: Sequence[str]) -> Tuple[str, ...]:
    out = list(a)
    seen = set(a)
    for name in b:
        if name not in seen:
            out.append(name)
            seen.add(name)
    return tuple(out)


class MultiPoly:
    """Sparse polynomial in named variables with Gaussian-rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Optional[TermMap] = None):
        object.__setattr__(self, "vars", tuple(variables))
        clean: TermMap = {}
        if terms:
            width = len(self.vars)
            for expo, coeff in terms.items():
                if len(expo) != width:
                    raise ValueError(f"exponent {expo} does not match variables {self.vars}")
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                coeff = GaussianRational.coerce(coeff)
                if not coeff.is_zero():
                    clean[tuple(expo)] = coeff
        object.__setattr__(self, "terms", clean)

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
        return MultiPoly(variables, terms)

    def _aligned(self, other: "MultiPoly") -> Tuple["MultiPoly", "MultiPoly"]:
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
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for expo, coeff in b.terms.items():
            acc = terms.get(expo, ZERO) + coeff
            if acc.is_zero():
                terms.pop(expo, None)
            else:
                terms[expo] = acc
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce_operand(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce_operand(other)
        a, b = self._aligned(other)
        terms: TermMap = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                acc = terms.get(expo, ZERO) + c1 * c2
                if acc.is_zero():
                    terms.pop(expo, None)
                else:
                    terms[expo] = acc
        return MultiPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
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
        return MultiPoly(self.vars, {e: coeff * c for e, coeff in self.terms.items()})

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
        terms: TermMap = {}
        for expo, coeff in self.terms.items():
            k = expo[idx]
            if k == 0:
                continue
            new = list(expo)
            new[idx] = k - 1
            key = tuple(new)
            acc = terms.get(key, ZERO) + coeff * k
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
        return MultiPoly(self.vars, terms)

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
        out = ZERO
        for expo, coeff in self.terms.items():
            acc = coeff
            for value, k in zip(values, expo):
                if k:
                    acc = acc * value**k
            out = out + acc
        return out

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
        return {deg: MultiPoly(self.vars, terms) for deg, terms in parts.items()}

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable; compare canonical strings if needed")

    def sorted_terms(self) -> Iterable[Tuple[Exponent, GaussianRational]]:
        """Terms in canonical graded-lex order, highest first."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for expo, coeff in self.sorted_terms():
            factors = [
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(self.vars, expo)
                if k
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


# -- exact division and gcd ------------------------------------------------------


def _grlex_key(expo: Exponent) -> Tuple[int, Exponent]:
    return (sum(expo), expo)


def leading_term(p: MultiPoly) -> Tuple[Exponent, GaussianRational]:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    expo = max(p.terms, key=_grlex_key)
    return expo, p.terms[expo]


def try_divide(num: MultiPoly, den: MultiPoly) -> Optional[MultiPoly]:
    """Return ``num / den`` when the division is exact, else ``None``."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    num, den = num._aligned(den)
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


def _univariate_view(p: MultiPoly, idx: int) -> Dict[int, MultiPoly]:
    """Coefficients of ``p`` as a univariate polynomial in variable ``idx``."""
    coeffs: Dict[int, TermMap] = {}
    for expo, coeff in p.terms.items():
        k = expo[idx]
        rest = list(expo)
        rest[idx] = 0
        coeffs.setdefault(k, {})[tuple(rest)] = coeff
    return {k: MultiPoly(p.vars, terms) for k, terms in coeffs.items()}


def _content(p: MultiPoly, idx: int) -> MultiPoly:
    """gcd of the univariate-in-``idx`` coefficients of ``p``."""
    coeffs = list(_univariate_view(p, idx).values())
    out = coeffs[0]
    for c in coeffs[1:]:
        out = poly_gcd(out, c)
        if out.is_constant():
            break
    return out


def _normalize_unit(p: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1 (gcds are unique up to units)."""
    if p.is_zero():
        return p
    _, lead = leading_term(p)
    return p.scale(lead.inverse())


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd over the field Q(i), normalized to leading coefficient 1.

    Computed by a primitive polynomial-remainder sequence, recursing on the
    number of variables.  Inputs here stay small (chart transition data), so
    no subresultant optimization is needed.
    """
    a, b = a._aligned(b)
    if a.is_zero():
        return _normalize_unit(b)
    if b.is_zero():
        return _normalize_unit(a)
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(1, a.vars)
    # Main variable: the last one actually appearing in either operand.
    idx = max(
        i
        for i in range(len(a.vars))
        if a.degree_in(a.vars[i]) > 0 or b.degree_in(a.vars[i]) > 0
    )
    cont_a = _content(a, idx)
    cont_b = _content(b, idx)
    pa = try_divide(a, cont_a)
    pb = try_divide(b, cont_b)
    assert pa is not None and pb is not None
    cont = poly_gcd(cont_a, cont_b)
    # Primitive PRS in the main variable.
    if pa.degree_in(a.vars[idx]) < pb.degree_in(a.vars[idx]):
        pa, pb = pb, pa
    while not pb.is_zero():
        rem = _pseudo_rem(pa, pb, idx)
        pa, pb = pb, rem
        if not pb.is_zero():
            cb = _content(pb, idx)
            pb = try_divide(pb, cb)
            assert pb is not None
    if pa.degree_in(a.vars[idx]) > 0:
        pa = try_divide(pa, _content(pa, idx))
        assert pa is not None
    else:
        pa = MultiPoly.const(1, a.vars)
    return _normalize_unit(pa * cont)


def _pseudo_rem(a: MultiPoly, b: MultiPoly, idx: int) -> MultiPoly:
    """Pseudo-remainder of ``a`` by ``b`` in variable ``idx``."""
    var = a.vars[idx]
    da, db = a.degree_in(var), b.degree_in(var)
    if da < db:
        return a
    b_view = _univariate_view(b, idx)
    lead_b = b_view[db]
    rem = a
    x = MultiPoly.variable(var, a.vars)
    while not rem.is_zero() and rem.degree_in(var) >= db:
        dr = rem.degree_in(var)
        lead_r = _univariate_view(rem, idx)[dr]
        rem = rem * lead_b - b * lead_r * x ** (dr - db)
    return rem
