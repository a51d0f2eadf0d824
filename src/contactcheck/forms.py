"""Polynomial exterior calculus on a coordinate chart.

Holomorphic (p,0)-forms and vector fields with exact coefficients in the
chart ring Q(i)[base][fiber^±1].  A chart has ordered base variables plus an
optional distinguished fiber variable (always the last slot), the only one a
coefficient may invert.  The chart ring is a subring of the Laurent ring
Q(i)[u^±1], so a coefficient is a :class:`~contactcheck.poly.MultiPoly`
spelled over the chart's ``all_vars``, and :class:`ChartSpace` holds the
rules that belong to the subring: which elements belong to it
(:meth:`ChartSpace.coeff`), which are its units ``c * fiber^k``
(:meth:`ChartSpace.is_unit`, the pivot rule of the dtheta solve), the text
of a coefficient (:meth:`ChartSpace.format`) and its fiber-free part
(:meth:`ChartSpace.base_part`).

Forms store only strictly increasing index tuples, so antisymmetry is
structural; the interior product contracts on the left slot with alternating
signs, and full contraction ``omega(X_1, ..., X_p)`` is the iterated interior
product ``iota_{X_p} ... iota_{X_1} omega``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from .poly import MultiPoly
from .scalars import GaussianRational, ScalarLike

Coeff = MultiPoly
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

    # -- the chart ring ---------------------------------------------------------

    def coeff(self, poly: MultiPoly) -> Coeff:
        """``poly`` as a coefficient of the chart ring, spelled over ``all_vars``.

        The one checked way in: a variable outside the chart, or a negative
        exponent outside the fiber slot, raises ``ValueError``.
        """
        slots = {name: k for k, name in enumerate(self.all_vars)}
        terms = {}
        for expo, value in poly.terms.items():
            spelled = [0] * len(slots)
            for name, e in zip(poly.vars, expo):
                if not e:
                    continue
                if name not in slots:
                    raise ValueError(f"{name} is not a variable of the chart {self.all_vars}")
                if e < 0 and name != self.fiber_var:
                    raise ValueError(f"negative exponent of the base variable {name} in {poly}")
                spelled[slots[name]] = e
            terms[tuple(spelled)] = value
        return MultiPoly(self.all_vars, terms)

    def coeff_zero(self) -> Coeff:
        return MultiPoly.zero(self.all_vars)

    def coeff_const(self, value: ScalarLike) -> Coeff:
        return MultiPoly.const(value, self.all_vars)

    def coeff_var(self, name: str) -> Coeff:
        if name not in self.all_vars:
            raise ValueError(f"unknown variable {name!r}")
        return MultiPoly.variable(name, self.all_vars)

    def is_unit(self, c: Coeff) -> bool:
        """Whether ``c`` is ``a * fiber^k`` with ``a != 0``, a unit of the chart ring."""
        if len(c.terms) != 1:
            return False
        (expo,) = c.terms
        return all(not e or name == self.fiber_var for name, e in zip(c.vars, expo))

    def _fiber_parts(self, c: Coeff) -> Dict[int, MultiPoly]:
        """``c`` as ``sum_k p_k * fiber^k``: the nonzero ``p_k`` by fiber exponent."""
        if self.fiber_var not in c.vars:
            return {0: c} if c else {}
        idx = c.vars.index(self.fiber_var)
        rest = c.vars[:idx] + c.vars[idx + 1 :]
        parts: Dict[int, Dict[Key, GaussianRational]] = {}
        for expo, value in c.terms.items():
            parts.setdefault(expo[idx], {})[expo[:idx] + expo[idx + 1 :]] = value
        return {k: MultiPoly(rest, terms) for k, terms in parts.items()}

    def base_part(self, c: Coeff) -> MultiPoly:
        """``c`` without the fiber slot; ``ValueError`` if it depends on the fiber."""
        parts = self._fiber_parts(c)
        if parts.keys() - {0}:
            raise ValueError(f"{self.format(c)} depends on the fiber variable {self.fiber_var}")
        return parts.get(0, MultiPoly.zero(self.base_vars))

    def format(self, c: Coeff) -> str:
        """The text of a coefficient: ``fiber^k*(p_k)`` pieces, highest ``k`` first.

        ``p_k`` prints in the polynomial text format of
        :mod:`contactcheck.poly`; ``fiber^1`` prints as ``fiber``, and a
        constant ``p_k`` of 1 or -1 as ``fiber^k`` or ``-fiber^k``.
        """
        parts = self._fiber_parts(c)
        if not parts:
            return "0"
        pieces = []
        for k in sorted(parts, reverse=True):
            poly = parts[k]
            head = self.fiber_var if k == 1 else f"{self.fiber_var}^{k}"
            if k == 0:
                pieces.append(str(poly))
            elif poly == 1:
                pieces.append(head)
            elif poly == -1:
                pieces.append(f"-{head}")
            else:
                pieces.append(f"{head}*({poly})")
        return " + ".join(pieces)


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
            body = self.chart.format(coeff)
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
        return " + ".join(
            f"({self.chart.format(self.components[i])}) d/d{names[i]}"
            for i in sorted(self.components)
        )

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
        if any(min(expo, default=0) < 0 for expo in coeff.terms) and not source.is_unit(
            images[target.fiber_var]
        ):
            raise ValueError("negative fiber exponents need a unit fiber image c * fiber^k")
        piece = PolyForm.function(source, source.coeff(coeff.substitute(images)))
        for idx in key:
            piece = piece.wedge(differentials[target.all_vars[idx]])
        out = out + piece
    return out
