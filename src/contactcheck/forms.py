"""Polynomial exterior calculus on a coordinate chart.

Holomorphic (p,0)-forms and vector fields with exact Laurent-polynomial
coefficients.  A chart has ordered base variables plus an optional
distinguished fiber variable (always the last slot) in which coefficients may
be Laurent.  Forms store only strictly increasing index tuples, so
antisymmetry is structural; the interior product contracts on the left slot
with alternating signs, and full contraction ``omega(X_1, ..., X_p)`` is the
iterated interior product ``iota_{X_p} ... iota_{X_1} omega``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .laurent import LaurentPoly
from .poly import MultiPoly
from .scalars import GaussianRational, ScalarLike

Coeff = LaurentPoly
Key = Tuple[int, ...]


class ChartSpace:
    """Named coordinates: base variables plus an optional Laurent fiber variable."""

    __slots__ = ("base_vars", "fiber_var", "all_vars")

    def __init__(self, base_vars: Sequence[str], fiber_var: Optional[str] = None):
        base = tuple(base_vars)
        if len(set(base)) != len(base):
            raise ValueError("duplicate base variable names")
        if fiber_var is not None and fiber_var in base:
            raise ValueError("fiber variable clashes with a base variable")
        object.__setattr__(self, "base_vars", base)
        object.__setattr__(self, "fiber_var", fiber_var)
        object.__setattr__(self, "all_vars", base + ((fiber_var,) if fiber_var else ()))

    def __setattr__(self, name, value):
        raise AttributeError("ChartSpace is immutable")

    @property
    def dim(self) -> int:
        return len(self.all_vars)

    def var_index(self, name: str) -> int:
        return self.all_vars.index(name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChartSpace):
            return NotImplemented
        return self.all_vars == other.all_vars and self.fiber_var == other.fiber_var

    def __hash__(self) -> int:
        return hash((self.all_vars, self.fiber_var))

    def __repr__(self) -> str:
        return f"ChartSpace({self.base_vars!r}, fiber={self.fiber_var!r})"

    # -- coefficient builders -------------------------------------------------

    def coeff_zero(self) -> Coeff:
        return LaurentPoly(self.fiber_var, {})

    def coeff_const(self, value: ScalarLike) -> Coeff:
        return LaurentPoly.const(value, self.fiber_var)

    def coeff_var(self, name: str) -> Coeff:
        if name == self.fiber_var:
            return LaurentPoly.fiber_power(name, 1)
        if name not in self.base_vars:
            raise ValueError(f"unknown variable {name!r}")
        return LaurentPoly.from_poly(MultiPoly.variable(name), self.fiber_var)

    def coeff_from_poly(self, poly: MultiPoly) -> Coeff:
        return LaurentPoly.from_poly(poly, self.fiber_var)


def _check_same_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ValueError(f"chart mismatch: {a.chart!r} vs {b.chart!r}")


class PolyForm:
    """Alternating (p,0)-form: map from increasing index tuples to coefficients."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: ChartSpace, degree: int, terms: Optional[Mapping[Key, Coeff]] = None):
        if degree < 0:
            raise ValueError("negative form degree")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        clean: Dict[Key, Coeff] = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple(key)
                if len(key) != degree:
                    raise ValueError(f"key {key} has wrong length for degree {degree}")
                if list(key) != sorted(set(key)):
                    raise ValueError(f"key {key} must be strictly increasing")
                if key and (key[0] < 0 or key[-1] >= chart.dim):
                    raise ValueError(f"key {key} out of range for chart of dim {chart.dim}")
                if not coeff.is_zero():
                    clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyForm is immutable")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero(chart: ChartSpace, degree: int = 0) -> "PolyForm":
        return PolyForm(chart, degree)

    @staticmethod
    def function(chart: ChartSpace, coeff: Coeff) -> "PolyForm":
        return PolyForm(chart, 0, {(): coeff})

    @staticmethod
    def d_var(chart: ChartSpace, name: str) -> "PolyForm":
        return PolyForm(chart, 1, {(chart.var_index(name),): chart.coeff_const(1)})

    # -- predicates ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- linear structure -----------------------------------------------------------

    def __add__(self, other: "PolyForm") -> "PolyForm":
        _check_same_chart(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = acc
        return PolyForm(self.chart, self.degree, terms)

    def __neg__(self) -> "PolyForm":
        return PolyForm(self.chart, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def scale(self, value) -> "PolyForm":
        if isinstance(value, (int, Fraction, GaussianRational)):
            value = self.chart.coeff_const(value)
        return PolyForm(self.chart, self.degree, {k: c * value for k, c in self.terms.items()})

    # -- multiplicative structure ------------------------------------------------------

    def wedge(self, other: "PolyForm") -> "PolyForm":
        _check_same_chart(self, other)
        degree = self.degree + other.degree
        if degree > self.chart.dim:
            # Beyond top degree everything is structurally zero.
            return PolyForm(self.chart, degree, {})
        terms: Dict[Key, Coeff] = {}
        for k1, c1 in self.terms.items():
            set1 = set(k1)
            for k2, c2 in other.terms.items():
                if set1 & set(k2):
                    continue
                key, sign = _merge_sorted(k1, k2)
                prod = c1 * c2
                if sign < 0:
                    prod = -prod
                acc = terms.get(key)
                acc = prod if acc is None else acc + prod
                if acc.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = acc
        return PolyForm(self.chart, degree, terms)

    def wedge_power(self, k: int) -> "PolyForm":
        out = PolyForm.function(self.chart, self.chart.coeff_const(1))
        for _ in range(k):
            out = out.wedge(self)
        return out

    # -- contraction -----------------------------------------------------------------

    def apply(self, *fields: "PolyVectorField") -> Coeff:
        """Full contraction ``omega(X_1, ..., X_p)`` of a p-form with p fields.

        This is the iterated interior product ``iota_{X_p} ... iota_{X_1} omega``
        read off its degree-0 result, so every contraction in the package goes
        through :func:`interior_product`.
        """
        if len(fields) != self.degree:
            raise ValueError(f"need {self.degree} fields, got {len(fields)}")
        form = self
        for field in fields:
            form = interior_product(field, form)
        return form.terms.get((), self.chart.coeff_zero())

    def evaluate(self, point: Mapping[str, ScalarLike]) -> Dict[Key, GaussianRational]:
        """Exact values of all coefficients at a point; zero entries dropped."""
        out: Dict[Key, GaussianRational] = {}
        for key, coeff in self.terms.items():
            value = coeff.evaluate(point)
            if not value.is_zero():
                out[key] = value
        return out

    # -- comparison / display -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        if self.chart != other.chart or self.degree != other.degree:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __hash__(self):
        raise TypeError("PolyForm is not hashable")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.chart.all_vars
        pieces = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            monom = "^".join(f"d{names[i]}" for i in key) if key else ""
            body = str(coeff)
            if monom:
                pieces.append(f"({body}) {monom}")
            else:
                pieces.append(body)
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"PolyForm(deg {self.degree}: {self})"


def _merge_sorted(k1: Key, k2: Key) -> Tuple[Key, int]:
    """Merge two disjoint increasing tuples; sign is the shuffle parity."""
    merged = list(k1)
    sign = 1
    for value in k2:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > value:
            pos -= 1
        # moving `value` past (len(merged) - pos) entries flips that many signs
        if (len(merged) - pos) % 2:
            sign = -sign
        merged.insert(pos, value)
    return tuple(merged), sign


class PolyVectorField:
    """Holomorphic vector field: map from variable index to Laurent coefficient."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: ChartSpace, components: Optional[Mapping[int, Coeff]] = None):
        object.__setattr__(self, "chart", chart)
        clean: Dict[int, Coeff] = {}
        if components:
            for idx, coeff in components.items():
                if not 0 <= idx < chart.dim:
                    raise ValueError(f"component index {idx} out of range")
                if not coeff.is_zero():
                    clean[idx] = coeff
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyVectorField is immutable")

    @staticmethod
    def zero(chart: ChartSpace) -> "PolyVectorField":
        return PolyVectorField(chart)

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        _check_same_chart(self, other)
        comps = dict(self.components)
        for idx, coeff in other.components.items():
            acc = comps.get(idx)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                comps.pop(idx, None)
            else:
                comps[idx] = acc
        return PolyVectorField(self.chart, comps)

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField(self.chart, {i: -c for i, c in self.components.items()})

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + (-other)

    def scale(self, value) -> "PolyVectorField":
        if isinstance(value, (int, Fraction, GaussianRational)):
            value = self.chart.coeff_const(value)
        return PolyVectorField(self.chart, {i: c * value for i, c in self.components.items()})

    def apply_to(self, coeff: Coeff) -> Coeff:
        """Directional derivative X(f) of a coefficient function."""
        out = self.chart.coeff_zero()
        for idx, comp in self.components.items():
            d = coeff.diff(self.chart.all_vars[idx])
            if not d.is_zero():
                out = out + comp * d
        return out

    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Lie bracket [self, other] of vector fields."""
        _check_same_chart(self, other)
        comps: Dict[int, Coeff] = {}
        for idx in range(self.chart.dim):
            a = other.components.get(idx)
            b = self.components.get(idx)
            total = self.chart.coeff_zero()
            if a is not None:
                total = total + self.apply_to(a)
            if b is not None:
                total = total - other.apply_to(b)
            if not total.is_zero():
                comps[idx] = total
        return PolyVectorField(self.chart, comps)

    def evaluate(self, point: Mapping[str, ScalarLike]) -> Dict[int, GaussianRational]:
        out: Dict[int, GaussianRational] = {}
        for idx, coeff in self.components.items():
            value = coeff.evaluate(point)
            if not value.is_zero():
                out[idx] = value
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        if self.chart != other.chart:
            return False
        if set(self.components) != set(other.components):
            return False
        return all(self.components[i] == other.components[i] for i in self.components)

    def __hash__(self):
        raise TypeError("PolyVectorField is not hashable")

    def __str__(self) -> str:
        if not self.components:
            return "0"
        names = self.chart.all_vars
        return " + ".join(f"({self.components[i]}) d/d{names[i]}" for i in sorted(self.components))

    def __repr__(self) -> str:
        return f"PolyVectorField({self})"


# -- the four derived operations ------------------------------------------------------


def exterior_derivative(form: PolyForm) -> PolyForm:
    """d: differentiates each coefficient; d(c dx_I) = sum_v (dc/dv) dv ^ dx_I."""
    chart = form.chart
    terms: Dict[Key, Coeff] = {}
    for key, coeff in form.terms.items():
        key_set = set(key)
        for v, name in enumerate(chart.all_vars):
            if v in key_set:
                continue
            d = coeff.diff(name)
            if d.is_zero():
                continue
            new_key, sign = _merge_sorted((v,), key)
            if sign < 0:
                d = -d
            acc = terms.get(new_key)
            acc = d if acc is None else acc + d
            if acc.is_zero():
                terms.pop(new_key, None)
            else:
                terms[new_key] = acc
    return PolyForm(chart, form.degree + 1, terms)


def interior_product(field: PolyVectorField, form: PolyForm) -> PolyForm:
    """iota_X: contraction on the left slot with alternating signs."""
    _check_same_chart(field, form)
    chart = form.chart
    if form.degree == 0:
        return PolyForm.zero(chart, 0)
    terms: Dict[Key, Coeff] = {}
    for key, coeff in form.terms.items():
        for pos, idx in enumerate(key):
            comp = field.components.get(idx)
            if comp is None or comp.is_zero():
                continue
            value = coeff * comp
            if pos % 2:
                value = -value
            new_key = key[:pos] + key[pos + 1 :]
            acc = terms.get(new_key)
            acc = value if acc is None else acc + value
            if acc.is_zero():
                terms.pop(new_key, None)
            else:
                terms[new_key] = acc
    return PolyForm(chart, form.degree - 1, terms)


def lie_derivative(field: PolyVectorField, form: PolyForm) -> PolyForm:
    """Cartan formula L_X = d iota_X + iota_X d."""
    if form.degree == 0:
        # The d iota_X term is structurally zero on functions.
        return interior_product(field, exterior_derivative(form))
    return exterior_derivative(interior_product(field, form)) + interior_product(
        field, exterior_derivative(form)
    )


def pullback(
    source: ChartSpace,
    images: Mapping[str, Coeff],
    form: PolyForm,
) -> PolyForm:
    """Pull a form back along the map whose target-variable images are given.

    ``images`` assigns to every target chart variable a coefficient function
    on ``source``.  Laurent coefficients in the target fiber variable require
    its image to be a unit: a constant times a power of the source fiber.
    """
    target = form.chart
    missing = [v for v in target.all_vars if v not in images]
    if missing:
        raise ValueError(f"pullback images missing for {missing}")
    differentials = {
        name: exterior_derivative(PolyForm.function(source, images[name]))
        for name in target.all_vars
    }
    out = PolyForm.zero(source, form.degree)
    for key, coeff in form.terms.items():
        pulled = _pull_coeff(source, images, target, coeff)
        piece = PolyForm.function(source, pulled)
        for idx in key:
            piece = piece.wedge(differentials[target.all_vars[idx]])
        out = out + piece
    return out


def _pull_coeff(
    source: ChartSpace,
    images: Mapping[str, Coeff],
    target: ChartSpace,
    coeff: Coeff,
) -> Coeff:
    base_bindings: Dict[str, MultiPoly] = {}
    for name in target.base_vars:
        base_bindings[name] = images[name].base_part()
    fiber_image: Optional[Coeff] = None
    fiber_inverse: Optional[Coeff] = None
    if target.fiber_var is not None:
        fiber_image = images[target.fiber_var]
        if coeff.min_exp() < 0:
            if not fiber_image.is_unit():
                raise ValueError(
                    "negative fiber exponents need a unit fiber image c * fiber^k"
                )
            fiber_inverse = source.coeff_const(1) / fiber_image
    out = source.coeff_zero()
    for k, poly in coeff.parts.items():
        piece = source.coeff_from_poly(poly.substitute(base_bindings))
        if k > 0:
            assert fiber_image is not None
            piece = piece * fiber_image**k
        elif k < 0:
            assert fiber_inverse is not None
            piece = piece * fiber_inverse ** (-k)
        out = out + piece
    return out
