"""Polynomial exterior calculus on a coordinate chart.

Holomorphic (p,0)-forms and vector fields with exact coefficients in the
chart ring Q(i)[base][fiber^±1].  A chart has ordered base variables plus an
optional distinguished fiber variable (always the last slot), the only one a
coefficient may invert.  The chart ring is a subring of the Laurent ring
Q(i)[u^±1], so a coefficient is a :class:`~contactcheck.poly.MultiPoly`
spelled over the chart's ``all_vars`` (forms and fields reject any other
spelling when they are built), and :class:`ChartSpace` holds the
rules that belong to the subring: which elements belong to it
(:meth:`ChartSpace.coeff`), which are its units ``c * fiber^k``
(:meth:`ChartSpace.is_unit`, the pivot rule of the dtheta solve), the text
of a coefficient (:meth:`ChartSpace.format`) and its fiber-free part
(:meth:`ChartSpace.base_part`).

Forms store only strictly increasing index tuples, so antisymmetry is
structural; the interior product contracts on the left slot with alternating
signs, and full contraction ``omega(X_1, ..., X_p)`` is the iterated interior
product ``iota_{X_p} ... iota_{X_1} omega``.

One sum rule: forms and fields store no zero coefficient, and no sum starts
from the zero polynomial or keeps a key whose sum cancels.  Every sum of
products here -- the wedge, d, iota, the derivation ``X(h)``, the bracket
and the pullback -- is summed where its products are made: each form key or
field index gets one plain exponent -> scalar dict, fed pieces
``k * c * u^e * p`` by :func:`~contactcheck.linalg.add_scaled` (whole
products by :func:`~contactcheck.poly.add_product`), the terms of one factor
against the other factor, and wrapped once by
:func:`~contactcheck.poly.from_sum` when it is finished; an empty dict is a
zero sum and is not kept.  The partial derivatives of a coefficient are read
in one pass over its terms (``a * x^e`` gives ``e_v * a`` at ``e`` lowered
in slot v, for every v), with the exponent factor and any sign passed as the
int multiplier ``k``, so no product, partial or negated polynomial and no
scalar ``k * a`` is built.  d, whose pieces are those partial terms alone,
adds them as bare monomials (:func:`~contactcheck.poly.add_monomial`).
``+`` of forms and fields is :func:`~contactcheck.linalg.add_terms` on their
coefficients.

Checked once.  The public constructors check every key (length, strictly
increasing, in range) and every coefficient (chart spelling; zeros dropped).
The results of ``+``, unary ``-``, the wedge, d, iota, the bracket and the
pullback are already canonical -- their keys come out increasing and in
range, their coefficients are spelled over the chart's ``all_vars`` by
construction, and no zero coefficient or empty sum is kept -- so the private
``PolyForm._make`` and ``PolyVectorField._make`` wrap them unchecked.  Three
kinds of site keep the checked constructors: the public ones, which take
caller data; ``scale``, whose scalar may be zero; and the constructor of
:class:`ChartMap`, where the images of a map are checked for their
spelling.  Modules above this one, such as :mod:`contactcheck.contact`,
build forms and fields through the public constructors alone, since a
private name is its own module's business.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from .linalg import add_scaled, add_terms, scaled_triple
from .poly import MultiPoly, TermMap, add_monomial, add_product, from_sum
from .scalars import GaussianRational, Immutable, ScalarLike

Coeff = MultiPoly
Key = Tuple[int, ...]


class ChartSpace(Immutable):
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

    def require_spelled(self, c: Coeff) -> None:
        """``ValueError`` unless ``c`` is spelled over ``all_vars``, as :meth:`coeff` spells it."""
        if c.vars != self.all_vars:
            raise ValueError(f"{c} is spelled over {c.vars}, not over the chart {self!r}")

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


class PolyForm(Immutable):
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
                chart.require_spelled(coeff)
                if not coeff.is_zero():
                    clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _make(chart: ChartSpace, degree: int, terms: Dict[Key, Coeff]) -> "PolyForm":
        """Wrap canonical data unchecked: increasing in-range keys, chart spelling, no zero."""
        form = object.__new__(PolyForm)
        object.__setattr__(form, "chart", chart)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "terms", terms)
        return form

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
        add_terms(terms, other.terms.items())
        return PolyForm._make(self.chart, self.degree, terms)

    def __neg__(self) -> "PolyForm":
        return PolyForm._make(self.chart, self.degree, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def scale(self, value) -> "PolyForm":
        return PolyForm(self.chart, self.degree, {k: c * value for k, c in self.terms.items()})

    # -- multiplicative structure ------------------------------------------------------

    def wedge(self, other: "PolyForm") -> "PolyForm":
        _check_same_chart(self, other)

        sums: Dict[Key, TermMap] = {}
        # Past the top degree every key pair overlaps, so nothing is added.
        for k1, c1 in self.terms.items():
            set1 = set(k1)
            for k2, c2 in other.terms.items():
                if set1.isdisjoint(k2):
                    key, sign = _merge_sorted(k1, k2)
                    add_product(sums.setdefault(key, {}), c1, c2, sign)
        names = self.chart.all_vars
        terms = {key: from_sum(names, total) for key, total in sums.items() if total}
        return PolyForm._make(self.chart, self.degree + other.degree, terms)

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
        return _evaluate(self.terms, point)

    # -- comparison / display -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        return self.chart == other.chart and self.degree == other.degree and self.terms == other.terms

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


def _evaluate(coeffs: Mapping[Hashable, Coeff], point: Mapping[str, ScalarLike]) -> Dict:
    """The nonzero values of ``coeffs`` at a point, by key."""
    out = {}
    for key, coeff in coeffs.items():
        value = coeff.evaluate(point)
        if not value.is_zero():
            out[key] = value
    return out


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


def _derive_into(total: TermMap, field: "PolyVectorField", h: Coeff, sign: int) -> None:
    """Add ``sign * X(h) = sign * sum_j X_j dh/dx_j`` to the sum ``total``, the
    partials of ``h`` read in one pass."""
    components = field.components
    for j, k, c, e in h.partial_terms():
        comp = components.get(j)
        if comp is not None:
            add_scaled(total, scaled_triple(c, k * sign), comp.terms, e)


class PolyVectorField(Immutable):
    """Holomorphic vector field: map from variable index to Laurent coefficient."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: ChartSpace, components: Optional[Mapping[int, Coeff]] = None):
        object.__setattr__(self, "chart", chart)
        clean: Dict[int, Coeff] = {}
        if components:
            for idx, coeff in components.items():
                if not 0 <= idx < chart.dim:
                    raise ValueError(f"component index {idx} out of range")
                chart.require_spelled(coeff)
                if not coeff.is_zero():
                    clean[idx] = coeff
        object.__setattr__(self, "components", clean)

    @staticmethod
    def _make(chart: ChartSpace, components: Dict[int, Coeff]) -> "PolyVectorField":
        """Wrap canonical data unchecked: in-range indices, chart spelling, no zero."""
        field = object.__new__(PolyVectorField)
        object.__setattr__(field, "chart", chart)
        object.__setattr__(field, "components", components)
        return field

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        _check_same_chart(self, other)
        components = dict(self.components)
        add_terms(components, other.components.items())
        return PolyVectorField._make(self.chart, components)

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField._make(self.chart, {i: -c for i, c in self.components.items()})

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + (-other)

    def scale(self, value) -> "PolyVectorField":
        return PolyVectorField(self.chart, {i: c * value for i, c in self.components.items()})

    def apply_to(self, coeff: Coeff) -> Coeff:
        """Directional derivative X(f) = sum_j X_j df/dx_j of a coefficient function."""
        total: TermMap = {}
        _derive_into(total, self, coeff, 1)
        return from_sum(self.chart.all_vars, total)

    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Lie bracket [self, other] of vector fields: component i is X(Y_i) - Y(X_i)."""
        _check_same_chart(self, other)
        components: Dict[int, Coeff] = {}
        for idx in range(self.chart.dim):
            total: TermMap = {}
            if idx in other.components:
                _derive_into(total, self, other.components[idx], 1)
            if idx in self.components:
                _derive_into(total, other, self.components[idx], -1)
            if total:
                components[idx] = from_sum(self.chart.all_vars, total)
        return PolyVectorField._make(self.chart, components)

    def evaluate(self, point: Mapping[str, ScalarLike]) -> Dict[int, GaussianRational]:
        return _evaluate(self.components, point)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

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
    sums: Dict[Key, TermMap] = {}
    for key, coeff in form.terms.items():
        merged = {v: _merge_sorted((v,), key) for v in range(chart.dim) if v not in key}
        for v, k, c, e in coeff.partial_terms():
            if v in merged:
                new_key, sign = merged[v]
                add_monomial(sums.setdefault(new_key, {}), c, e, k * sign)
    terms = {key: from_sum(chart.all_vars, total) for key, total in sums.items() if total}
    return PolyForm._make(chart, form.degree + 1, terms)


def interior_product(field: PolyVectorField, form: PolyForm) -> PolyForm:
    """iota_X: contraction on the left slot with alternating signs."""
    _check_same_chart(field, form)
    if form.degree == 0:
        return PolyForm.zero(form.chart, 0)
    sums: Dict[Key, TermMap] = {}
    components = field.components
    for key, coeff in form.terms.items():
        for pos, idx in enumerate(key):
            comp = components.get(idx)
            if comp is not None:
                add_product(sums.setdefault(key[:pos] + key[pos + 1 :], {}), coeff, comp, -1 if pos % 2 else 1)
    names = form.chart.all_vars
    terms = {key: from_sum(names, total) for key, total in sums.items() if total}
    return PolyForm._make(form.chart, form.degree - 1, terms)


def lie_derivative(field: PolyVectorField, form: PolyForm) -> PolyForm:
    """Cartan formula L_X = d iota_X + iota_X d."""
    if form.degree == 0:
        # The d iota_X term is structurally zero on functions.
        return interior_product(field, exterior_derivative(form))
    return exterior_derivative(interior_product(field, form)) + interior_product(
        field, exterior_derivative(form)
    )


class ChartMap(Immutable):
    """A map from ``source`` to ``target``: the image of every target variable.

    An image is an element of the Laurent ring spelled over ``source.all_vars``,
    which on an overlap may invert coordinates, such as ``u0 -> u1^-1``.  The
    constructor checks the images once -- a missing image, an image of a name
    that is not a target variable, or an image spelled over other variables
    than ``source``'s raises ``ValueError`` -- and builds their differentials
    once.  It is the package's one map between charts: a chart transition, and
    a local section from its base chart to a contact chart, whose unit
    variable :func:`~contactcheck.contact.reconstruct_cstructure` reads off
    its images.  :meth:`pull` is the one pullback of the package, along either;
    a form with negative powers of the target fiber pulls back only along a
    unit fiber image ``c * fiber^k``.
    """

    __slots__ = ("source", "target", "images", "_differentials", "_unit_fiber")

    def __init__(self, source: ChartSpace, target: ChartSpace, images: Mapping[str, Coeff]):
        missing = [v for v in target.all_vars if v not in images]
        if missing:
            raise ValueError(f"pullback images missing for {missing}")
        extra = [v for v in images if v not in target.all_vars]
        if extra:
            raise ValueError(f"pullback images of {extra}, which are not variables of {target!r}")
        differentials = [exterior_derivative(PolyForm.function(source, images[v])) for v in target.all_vars]
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", dict(images))
        object.__setattr__(self, "_differentials", differentials)
        object.__setattr__(self, "_unit_fiber", not target.fiber_var or source.is_unit(images[target.fiber_var]))

    def pull(self, form: PolyForm) -> PolyForm:
        """The pullback of a form on ``target``: a form on ``source`` of the same degree."""
        if form.chart != self.target:
            raise ValueError(f"a form on {form.chart!r} does not pull back along a map to {self.target!r}")
        if not self._unit_fiber and any(expo[-1] < 0 for coeff in form.terms.values() for expo in coeff.terms):
            raise ValueError("negative fiber exponents need a unit fiber image c * fiber^k")
        no_differential = {(): self.source.coeff_const(1)}
        sums: Dict[Key, TermMap] = {}
        for key, coeff in form.terms.items():
            # dx_I pulls back to the wedge of the differentials of its images.
            factors = [self._differentials[idx] for idx in key]
            dx = reduce(PolyForm.wedge, factors).terms if factors else no_differential
            f = coeff.substitute(self.images)
            for k, c in dx.items():
                add_product(sums.setdefault(k, {}), f, c)
        names = self.source.all_vars
        terms = {k: from_sum(names, total) for k, total in sums.items() if total}
        return PolyForm._make(self.source, form.degree, terms)
