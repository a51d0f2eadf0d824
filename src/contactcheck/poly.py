"""Sparse Laurent polynomials over the Gaussian rationals: the ring Q(i)[u^±1].

A :class:`MultiPoly` stores an ordered variable tuple and a dictionary from
exponent vectors (tuples of ints, one slot per variable) to nonzero
:class:`~contactcheck.scalars.GaussianRational` coefficients.  An exponent
may be negative; a polynomial is the case where none is.  It is the one
coefficient ring of the package.  Chart transitions, compatibility factors
and canonical-bundle cocycles live in it, on chart overlaps, where the only
denominators are coordinate monomials; so do chart coefficients, elements of
the subring Q(i)[base][fiber^±1] spelled over their chart's variables (see
:class:`~contactcheck.forms.ChartSpace`).

One spelling per operation.  ``+``, ``-``, ``*``, ``/`` and ``==`` take two
elements spelled over the same variable tuple, and raise ``ValueError``
naming both tuples otherwise; an int or a scalar is read as a constant over
the polynomial's own tuple.  So ``x + 1`` over ``(x,)`` and ``-x - 1`` over
``(x, y)`` do not add: re-spell one first, through
:meth:`~contactcheck.forms.ChartSpace.coeff`.

Only units divide.  The units of the ring are its single terms ``c * u^e``
(:meth:`MultiPoly.is_unit`), and ``a / b`` by a unit ``b`` is a shift of
every exponent of ``a`` by ``-e`` and a scale by ``1/c``.  Any other divisor
raises ``ArithmeticError``, and zero raises ``ZeroDivisionError``; so a
negative power exists exactly for a unit.  Nothing else is needed: the
package divides by coordinate monomials, by the pivots that its elimination
loop accepts as units, and by one term of another when it reads off a unit
ratio.

``terms`` never holds a zero coefficient.  The public constructor checks every
exponent and coefficient it is given; the results of arithmetic are already in
that canonical form and are wrapped by :func:`from_sum` without being checked
again.  The sums are the two loops of :mod:`contactcheck.linalg`, which keep
that form; ``+`` is :func:`~contactcheck.linalg.add_terms` on the terms.

Sums of products.  A sum of products is a plain exponent -> scalar dict.
A piece ``k * c * u^shift * p`` goes in by
``add_scaled(terms, scaled_triple(c, k), p.terms, shift)``
(:func:`~contactcheck.linalg.add_scaled`), and :func:`from_sum` wraps the
finished dict once.  The multiplier ``k`` is a nonzero int: a sign, or the
exponent factor of a partial derivative, passed as it is, so no scalar
``-c`` or ``k * c`` is built.  ``*`` is one such sum (:func:`add_product`),
a piece per term of the shorter factor, so a product by a unit ``c * u^e``
is one shift.  The chart calculus of :mod:`contactcheck.forms` and the
dtheta solve of :mod:`contactcheck.contact` sum the pieces of their sums of
products straight into their dicts, with the partial derivatives of a
polynomial read in one pass over its terms as ``(slot, k, c, e)``
(:meth:`MultiPoly.partial_terms`), so no intermediate polynomial is built.
A bare monomial ``k * c * u^e``, such as a term of a partial derivative in
d, goes in by :func:`add_monomial`: by ``add_terms`` when ``k == 1``, so
``c`` itself is stored when the monomial is new and no product by 1 is
made; :meth:`MultiPoly.substitute` sums each term's product of image powers
into one dict.

Degrees are read, not built.  Under weights ``w`` (0 for a variable not
named), a term ``c * u^e`` has weighted degree ``sum w_k e_k``;
:meth:`MultiPoly.weighted_degrees` is the set of them, read off the
exponents, and a polynomial is homogeneous when the set has at most one
element (:meth:`MultiPoly.weighted_degree`).  The scaling degrees of forms
and fields in :mod:`contactcheck.contact` are read the same way.

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
from functools import reduce
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .linalg import add_scaled, add_terms, scaled_triple
from .scalars import GaussianRational, Immutable, ScalarLike, ZERO, ONE

Exponent = Tuple[int, ...]
TermMap = Dict[Exponent, GaussianRational]


def _natural_key(name: str) -> List[object]:
    """Sort key of a variable name: text chunks as text, digit runs as numbers."""
    return [int(chunk) if k % 2 else chunk for k, chunk in enumerate(re.split(r"(\d+)", name))]


class MultiPoly(Immutable):
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

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(expo) for expo in self.terms)

    def is_unit(self) -> bool:
        """Whether this is a single term ``c * u^e``, a unit of the Laurent ring."""
        return len(self.terms) == 1

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
        terms = dict(self.terms)
        add_terms(terms, other.terms.items())
        return from_sum(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return from_sum(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce_operand(other) - self

    def __mul__(self, other) -> "MultiPoly":
        terms: TermMap = {}
        add_product(terms, self, self._coerce_operand(other))
        return from_sum(self.vars, terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        """The quotient by a unit ``c * u^e``: a shift by ``-e`` and a scale by ``1/c``.

        Any other divisor raises ``ArithmeticError``, and zero raises
        ``ZeroDivisionError``.
        """
        other = self._coerce_operand(other)
        if other.is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        if not other.is_unit():
            raise ArithmeticError(f"({self}) / ({other}): the divisor is not a unit")
        ((expo, c),) = other.terms.items()
        return _shifted(self, expo).scale(c.inverse())

    def __rtruediv__(self, other) -> "MultiPoly":
        return self._coerce_operand(other) / self

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            return (MultiPoly.const(1, self.vars) / self) ** -k
        if not k:
            return MultiPoly.const(1, self.vars)
        # Square and multiply from the lowest bit, with no product by the
        # starting 1 and no square past the highest bit: x^1 is x itself.
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def scale(self, value: ScalarLike) -> "MultiPoly":
        c = GaussianRational.coerce(value)
        if c.is_zero():
            return MultiPoly.zero(self.vars)
        return from_sum(self.vars, {e: coeff * c for e, coeff in self.terms.items()})

    def _coerce_operand(self, other) -> "MultiPoly":
        """``other`` spelled as this polynomial is; ``ValueError`` for another spelling."""
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError(f"operands spelled over {self.vars} and {other.vars}")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return MultiPoly.const(other, self.vars)
        raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")

    # -- calculus -------------------------------------------------------------

    def diff(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``var``."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}; have {self.vars}")
        slot = self.vars.index(var)
        return from_sum(
            self.vars, {e: c if k == 1 else c * k for s, k, c, e in self.partial_terms() if s == slot}
        )

    def partial_terms(self) -> Iterator[Tuple[int, int, GaussianRational, Exponent]]:
        """The terms ``k * c * u^e`` of every partial derivative, read in one
        pass over the terms as ``(slot, k, c, e)``.

        A term ``c * u^e`` with ``k = e[slot] != 0`` gives ``k * c`` at ``e``
        lowered by 1 in that slot, for each such slot; the factor ``k`` is
        left for the sum that takes the term, so no scalar ``k * c`` is built.
        Lowering one exponent is injective, so no two terms of one slot land
        on one exponent.
        """
        for expo, coeff in self.terms.items():
            for slot, k in enumerate(expo):
                if k:
                    lowered = list(expo)
                    lowered[slot] = k - 1
                    yield slot, k, coeff, tuple(lowered)

    def substitute(self, bindings: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Ring homomorphism sending each bound variable to its image polynomial.

        The images are spelled over one variable tuple, and so is the result.
        An unbound variable maps to itself, so it must be a name of that
        tuple; with no bindings the result is this polynomial.  A binding of a
        name that is not a variable of this polynomial raises ``ValueError``.
        """
        extra = [name for name in bindings if name not in self.vars]
        if extra:
            raise ValueError(f"bindings for {extra}, which are not variables of {self.vars}")
        spellings = {img.vars for img in bindings.values()}
        if len(spellings) > 1:
            raise ValueError(f"images spelled over {sorted(spellings)}")
        if not spellings:
            return self
        (target,) = spellings
        images = []
        for name in self.vars:
            img = bindings.get(name)
            if img is None:
                if name not in target:
                    raise ValueError(f"unbound variable {name!r} is not in {target}")
                img = MultiPoly.variable(name, target)
            images.append(img)
        total: TermMap = {}
        for expo, coeff in self.terms.items():
            powers = [img**k for img, k in zip(images, expo) if k]
            if powers:
                add_scaled(total, scaled_triple(coeff, 1), reduce(operator.mul, powers).terms)
            else:
                add_monomial(total, coeff, (0,) * len(target))
        return from_sum(target, total)

    def evaluate(self, point: Mapping[str, ScalarLike]) -> GaussianRational:
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"no value supplied for {missing}")
        extra = [name for name in point if name not in self.vars]
        if extra:
            raise ValueError(f"values for {extra}, which are not variables of {self.vars}")
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

    def weighted_degrees(self, weights: Mapping[str, int]) -> Set[int]:
        """The weighted degrees of the terms, read off their exponents (none for 0)."""
        w = [weights.get(name, 0) for name in self.vars]
        return {sum(map(operator.mul, w, expo)) for expo in self.terms}

    def weighted_degree(self, weights: Mapping[str, int]) -> Optional[int]:
        """The weighted degree if homogeneous, ``None`` otherwise (0 for the zero polynomial)."""
        degrees = self.weighted_degrees(weights)
        return None if len(degrees) > 1 else next(iter(degrees), 0)

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (MultiPoly, int, Fraction, GaussianRational)):
            return NotImplemented
        return self.terms == self._coerce_operand(other).terms

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
            return f"({num}) / ({from_sum(self.vars, {den: ONE})})"
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


# -- monomial content ----------------------------------------------------------


def _low_exponent(p: MultiPoly) -> Exponent:
    """The exponent of the monomial content of the nonzero ``p``: each variable's lowest."""
    return tuple(map(min, zip(*p.terms)))


def _shifted(p: MultiPoly, expo: Exponent) -> MultiPoly:
    """``p`` divided by the monomial with exponent ``expo``."""
    if not any(expo):
        return p
    return from_sum(
        p.vars, {tuple(map(operator.sub, k, expo)): c for k, c in p.terms.items()}
    )


# -- sums of products -----------------------------------------------------------

_new = object.__new__
_set_vars = MultiPoly.vars.__set__
_set_terms = MultiPoly.terms.__set__


def from_sum(variables: Tuple[str, ...], terms: TermMap) -> MultiPoly:
    """A finished sum as a :class:`MultiPoly` over ``variables``, wrapped unchecked.

    ``terms`` must already be canonical: exponents of the right width and no
    zero coefficient, as the sums of :mod:`contactcheck.linalg` and the
    term-by-term maps of arithmetic leave them.  The polynomial takes the
    dict itself, so the caller must not change it afterwards.
    """
    poly = _new(MultiPoly)
    _set_vars(poly, variables)
    _set_terms(poly, terms)
    return poly


def add_product(terms: TermMap, p: MultiPoly, q: MultiPoly, k: int = 1) -> None:
    """Add ``k * p * q`` to the sum ``terms`` for a nonzero int ``k``: a piece
    per term of the shorter factor, so a product by a unit ``c * u^e`` is one shift."""
    if len(p.terms) > len(q.terms):
        p, q = q, p
    inner = q.terms
    for e, c in p.terms.items():
        add_scaled(terms, scaled_triple(c, k), inner, e)


def add_monomial(terms: TermMap, c: GaussianRational, expo: Exponent, k: int = 1) -> None:
    """Add the bare monomial ``k * c * u^expo`` to the sum ``terms``, ``c != 0``
    and ``k`` a nonzero int.  With ``k == 1`` no product is made: ``c`` is
    summed by :func:`~contactcheck.linalg.add_terms`, so it is stored itself
    when the monomial is new."""
    if k == 1:
        add_terms(terms, ((expo, c),))
    else:
        add_scaled(terms, (k, 0, 1), {expo: c})
