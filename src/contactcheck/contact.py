"""Contact charts of degree delta, their Euler and Hamiltonian fields, and
the exact identity suites built on them.

Two chart flavors cover every shipped model:

* fibered charts ``(z0 .. z_{2n}, lam)`` carrying ``theta = lam^delta *
  (dz0 + sum_k z_k dz_{n+k})`` with the scaling action on the fiber alone;
* global weighted charts like ``C^{2n+2} minus 0`` with all coordinate
  weights 1, e.g. the quadratic form ``theta = sum_k (z_k dz_{k+n+1} -
  z_{k+n+1} dz_k)`` of degree 2.

A real vector field here is always represented by its (1,0)-part: the
Hamiltonian field stored for ``f`` is the holomorphic solution ``X`` of
``iota_X dtheta = -df``, which determines the real field as twice its real
part.  Every identity verified below is equivalent to its statement for the
real fields, and this convention is what keeps the arithmetic exact.

Failure witnesses serialize the nonzero residual in the polynomial text
format of :mod:`contactcheck.poly`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .forms import (
    ChartSpace,
    Coeff,
    PolyForm,
    PolyVectorField,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
)
from .laurent import LaurentPoly
from .poly import MultiPoly
from .ratfunc import RationalFunction, compose_rational
from .report import CheckResult, check
from .scalars import GaussianRational, ONE, ZERO

RF_ONE = RationalFunction.const(1)
RF_ZERO = RationalFunction.const(0)


class ContactChart:
    """One trivializing chart of a principal contact bundle of degree delta."""

    __slots__ = ("chart", "theta", "delta", "weights", "label", "_solver")

    def __init__(
        self,
        chart: ChartSpace,
        theta: PolyForm,
        delta: int,
        weights: Mapping[str, int],
        label: str = "chart",
    ):
        if delta == 0:
            raise ValueError("degree 0 is rejected: d(theta) would be degenerate")
        if theta.degree != 1 or theta.chart != chart:
            raise ValueError("theta must be a 1-form on the given chart")
        weights = dict(weights)
        missing = [v for v in chart.all_vars if v not in weights]
        if missing:
            raise ValueError(f"missing scaling weights for {missing}")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_solver", None)
        parts = scaled_parts(self, theta)
        if set(parts) != {delta}:
            raise ValueError(
                f"theta is not weight-homogeneous of degree {delta}: components {sorted(parts)}"
            )

    def __setattr__(self, name, value):
        raise AttributeError("ContactChart is immutable")

    @property
    def dim(self) -> int:
        return self.chart.dim

    def vertical_field(self) -> PolyVectorField:
        """Generator of the scaling action: sum_j w_j x_j d/dx_j."""
        comps: Dict[int, Coeff] = {}
        for idx, name in enumerate(self.chart.all_vars):
            w = self.weights[name]
            if w:
                comps[idx] = self.chart.coeff_var(name).scale(w)
        return PolyVectorField(self.chart, comps)

    def __repr__(self) -> str:
        return f"ContactChart({self.label}, delta={self.delta})"


class HomogeneousFunction:
    """A Laurent-polynomial function of exact scaling degree ``ell``."""

    __slots__ = ("cc", "coeff", "ell")

    def __init__(self, cc: ContactChart, coeff: Coeff, ell: int):
        degree = coeff.weighted_degree(cc.weights)
        if not coeff.is_zero() and degree != ell:
            raise ValueError(f"function is not homogeneous of degree {ell} (got {degree})")
        object.__setattr__(self, "cc", cc)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "ell", ell)

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousFunction is immutable")

    def __repr__(self) -> str:
        return f"HomogeneousFunction(deg {self.ell}: {self.coeff})"


# -- shipped chart models ---------------------------------------------------------


def hopf_chart(n: int) -> ContactChart:
    """Global chart on C^{2n+2} minus 0 with the degree-2 quadratic contact form."""
    if n < 0:
        raise ValueError("n must be non-negative")
    names = [f"z{i}" for i in range(2 * n + 2)]
    chart = ChartSpace(names)
    theta = PolyForm.zero(chart, 1)
    for k in range(n + 1):
        zk = chart.coeff_var(names[k])
        zk_op = chart.coeff_var(names[k + n + 1])
        theta = theta + PolyForm.d_var(chart, names[k + n + 1]).scale(zk)
        theta = theta - PolyForm.d_var(chart, names[k]).scale(zk_op)
    weights = {name: 1 for name in names}
    return ContactChart(chart, theta, 2, weights, label=f"hopf(n={n})")


def fibered_chart(n: int, delta: int) -> ContactChart:
    """Trivialized chart ``(z, lam)`` with ``theta = lam^delta * gamma_Darboux``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    names = [f"z{i}" for i in range(2 * n + 1)]
    chart = ChartSpace(names, "lam")
    lam_pow = LaurentPoly.fiber_power("lam", delta) if delta else chart.coeff_const(1)
    theta = PolyForm.d_var(chart, "z0").scale(lam_pow)
    for k in range(1, n + 1):
        zk = chart.coeff_var(names[k])
        theta = theta + PolyForm.d_var(chart, names[n + k]).scale(zk * lam_pow)
    weights = {name: 0 for name in names}
    weights["lam"] = 1
    return ContactChart(chart, theta, delta, weights, label=f"fibered(n={n},delta={delta})")


# -- scaling decomposition ---------------------------------------------------------


def scaled_parts(cc: ContactChart, form: PolyForm) -> Dict[int, PolyForm]:
    """Components of the pulled-back form under ``x -> t^w x``, keyed by t-degree.

    ``dx_i`` contributes weight ``w_i`` on top of the coefficient's weight, so
    a form is scaling-homogeneous of degree d iff this map has the single key d.
    """
    out: Dict[int, Dict[Tuple[int, ...], Coeff]] = {}
    for key, coeff in form.terms.items():
        shift = sum(cc.weights[cc.chart.all_vars[i]] for i in key)
        for deg, part in coeff.weighted_parts(cc.weights).items():
            slot = out.setdefault(deg + shift, {})
            acc = slot.get(key)
            slot[key] = part if acc is None else acc + part
    return {deg: PolyForm(cc.chart, form.degree, terms) for deg, terms in out.items()}


def field_scaling_degrees(cc: ContactChart, field: PolyVectorField) -> Dict[int, List[int]]:
    """For each component i, the weighted degrees present, shifted by -w_i.

    A field satisfies ``R_{t*} X = t^{-d} X`` iff every component index maps
    to the single degree ``-d`` here (components of weight w_i - d... scale
    as t^{w_i + d'}); the Euler field has all entries equal to 0.
    """
    out: Dict[int, List[int]] = {}
    for idx, coeff in field.components.items():
        w = cc.weights[cc.chart.all_vars[idx]]
        out[idx] = sorted(deg - w for deg in coeff.weighted_parts(cc.weights))
    return out


# -- the symplectic solver ---------------------------------------------------------


def _symplectic_solver(cc: ContactChart) -> List[List[Coeff]]:
    """Inverse transpose of the dtheta coefficient matrix, cached per chart.

    The entries are Laurent polynomials, and the inverse is taken over that
    ring.  Its determinant is a unit ``c * fiber^k`` exactly when dtheta is
    nondegenerate on the whole chart, so any other determinant violates the
    symplectic axiom.  Elimination pivots on the first nonzero entry, which
    must be a unit.

    Concurrent first calls may both compute the inverse; they produce the
    same immutable matrix, so last-write-wins is safe.
    """
    if cc._solver is not None:
        return cc._solver
    n = cc.dim
    zero = cc.chart.coeff_zero()
    dtheta = exterior_derivative(cc.theta)
    matrix = [[zero] * n for _ in range(n)]
    for (i, j), coeff in dtheta.terms.items():
        matrix[j][i] = coeff
        matrix[i][j] = -coeff
    try:
        inverse = linalg.invert(matrix, one=cc.chart.coeff_const(1), zero=zero)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(
            f"dtheta is not invertible over the Laurent ring on {cc.label}: {exc}"
        ) from exc
    object.__setattr__(cc, "_solver", inverse)
    return inverse


def _solve_contraction(cc: ContactChart, target: PolyForm) -> PolyVectorField:
    """The field X with ``iota_X dtheta = target`` (exact, Laurent components)."""
    zero = cc.chart.coeff_zero()
    rhs = [zero] * cc.dim
    for (i,), coeff in target.terms.items():
        rhs[i] = coeff
    solution = linalg.mat_vec(_symplectic_solver(cc), rhs, zero=zero)
    # Spell every component over the chart's base variables, in chart order,
    # so a field prints the same whichever variables its input mentioned.
    base = cc.chart.base_vars
    comps = {
        i: LaurentPoly(c.fiber, {k: p.with_vars(base) for k, p in c.parts.items()})
        for i, c in enumerate(solution)
        if not c.is_zero()
    }
    return PolyVectorField(cc.chart, comps)


def euler_field(cc: ContactChart) -> PolyVectorField:
    """The field dual to -theta under dtheta; equals -(1/delta) * vertical field."""
    solved = _solve_contraction(cc, -cc.theta)
    candidate = cc.vertical_field().scale(GaussianRational(Fraction(-1, cc.delta)))
    if solved != candidate:
        raise ArithmeticError(
            f"euler field solve disagrees with the closed form: {solved} vs {candidate}"
        )
    return solved


def hamiltonian_field(cc: ContactChart, f: Coeff) -> PolyVectorField:
    """(1,0)-part of the Hamiltonian field: solves ``iota_X dtheta = -df``."""
    df = exterior_derivative(PolyForm.function(cc.chart, f))
    return _solve_contraction(cc, -df)


def pairing_with_theta(cc: ContactChart, field: PolyVectorField) -> Coeff:
    return cc.theta.apply(field)


def poisson_function(cc: ContactChart, f: Coeff, g: Coeff) -> Coeff:
    """dtheta(X'_f, X'_g): the Poisson companion of f and g."""
    dtheta = exterior_derivative(cc.theta)
    return dtheta.apply(hamiltonian_field(cc, f), hamiltonian_field(cc, g))


# -- homogeneity -------------------------------------------------------------------


def degree_of(cc: ContactChart, f: Coeff) -> Optional[int]:
    """Degree via the Euler operator: the integer ell with ``Xi f = -(ell/delta) f``.

    Returns None when f is not homogeneous.  The independent combinatorial
    route is :func:`scaling_degree`; the two must agree on every input.
    """
    if f.is_zero():
        return 0
    xi = euler_field(cc)
    image = xi.apply_to(f)
    # candidate scalar from any single matching term
    k0, poly0 = next(iter(f.parts.items()))
    expo0, c0 = next(iter(poly0.terms.items()))
    named = dict(zip(poly0.vars, expo0))
    image_part = image.parts.get(k0)
    ratio = ZERO if image_part is None else image_part.coefficient_of(named) / c0
    if image != f.scale(ratio):
        return None
    ell = ratio * GaussianRational(-cc.delta)
    if not ell.is_real() or ell.re.denominator != 1:
        return None
    return int(ell.re)


def scaling_degree(cc: ContactChart, f: Coeff) -> Optional[int]:
    """Degree via the weighted substitution ``x -> t^w x``; None if inhomogeneous."""
    return f.weighted_degree(cc.weights)


# -- axiom suite --------------------------------------------------------------------


def verify_axioms(cc: ContactChart, points: Sequence[Mapping[str, GaussianRational]] = ()) -> List[CheckResult]:
    """Check the bundle axioms on this chart.

    * vertical annihilation: theta kills the scaling generator;
    * scaling: the pulled-back theta is ``t^delta * theta`` exactly;
    * symplectic: ``(dtheta)^(n+1)`` is a nonzero top form, and the dtheta
      coefficient matrix is nonsingular at every supplied rational point.
    """
    label = cc.label
    results: List[CheckResult] = []
    vertical = pairing_with_theta(cc, cc.vertical_field())
    results.append(check(f"{label}:vertical-annihilation", vertical.is_zero(), vertical))
    parts = scaled_parts(cc, cc.theta)
    scaling_ok = set(parts) == {cc.delta} and parts[cc.delta] == cc.theta
    witness = ", ".join(f"t^{d}: {p}" for d, p in sorted(parts.items()))
    results.append(check(f"{label}:scaling-degree-{cc.delta}", scaling_ok, witness))
    n_half = cc.dim // 2
    dtheta = exterior_derivative(cc.theta)
    top = dtheta.wedge_power(n_half)
    results.append(check(f"{label}:symplectic-top-form", not top.is_zero(), "top power vanished"))
    for idx, point in enumerate(points):
        values = dtheta.evaluate(point)
        matrix = [[ZERO] * cc.dim for _ in range(cc.dim)]
        for (i, j), v in values.items():
            matrix[i][j] = v
            matrix[j][i] = -v
        ok = linalg.rank(matrix) == cc.dim
        results.append(check(f"{label}:symplectic-at-point-{idx}", ok, _point_str(point)))
    return results


def _point_str(point: Mapping[str, GaussianRational]) -> str:
    return "(" + ", ".join(f"{k}={v}" for k, v in sorted(point.items())) + ")"


# -- identity suites ---------------------------------------------------------------


def check_scaling_identities(
    cc: ContactChart, f: HomogeneousFunction, g: HomogeneousFunction
) -> List[CheckResult]:
    """The Hamiltonian identity suite for a homogeneous pair (f, g).

    Exact statements checked, with ``ell = deg f``, ``m = deg g``:

    * ``theta(X'_f) = (ell/delta) f``;
    * the Euler-operator degree equals the weighted-substitution degree;
    * ``[X'_f, X'_g] = X'_{dtheta(X'_f, X'_g)}``;
    * ``deg dtheta(X'_f, X'_g) = ell + m - delta`` unless that function is 0;
    * each component i of ``X'_f`` is weight-homogeneous of degree
      ``w_i - delta + ell`` (the pushforward law ``R_{t*} X'_f = t^{delta-ell} X'_f``).
    """
    label = f"{cc.label}:l{f.ell}:m{g.ell}"
    results: List[CheckResult] = []
    delta = cc.delta
    xf = hamiltonian_field(cc, f.coeff)
    xg = hamiltonian_field(cc, g.coeff)
    lhs = pairing_with_theta(cc, xf)
    rhs = f.coeff.scale(GaussianRational(Fraction(f.ell, delta)))
    results.append(check(f"{label}:theta-of-hamiltonian", lhs == rhs, lhs - rhs))
    d_euler = degree_of(cc, f.coeff)
    d_scale = scaling_degree(cc, f.coeff)
    results.append(
        check(
            f"{label}:euler-degree-agrees",
            d_euler == d_scale == (0 if f.coeff.is_zero() else f.ell),
            f"euler={d_euler} scaling={d_scale}",
        )
    )
    bracket = xf.bracket(xg)
    pois = exterior_derivative(cc.theta).apply(xf, xg)
    x_pois = hamiltonian_field(cc, pois)
    results.append(
        check(
            f"{label}:bracket-is-hamiltonian",
            bracket == x_pois,
            f"[Xf,Xg] = {bracket}; X_poisson = {x_pois}",
        )
    )
    if pois.is_zero():
        results.append(check(f"{label}:poisson-degree", True))
    else:
        dp = scaling_degree(cc, pois)
        results.append(
            check(
                f"{label}:poisson-degree",
                dp == f.ell + g.ell - delta,
                f"deg {dp} != {f.ell}+{g.ell}-{delta}",
            )
        )
    expected = {
        idx: [f.ell - delta]
        for idx in xf.components
    }
    results.append(
        check(
            f"{label}:pushforward-scaling",
            field_scaling_degrees(cc, xf) == expected,
            f"{field_scaling_degrees(cc, xf)} != {expected}",
        )
    )
    return results


def check_invariance_identities(
    cc: ContactChart, samples: Sequence[HomogeneousFunction]
) -> List[CheckResult]:
    """Theta-preserving fields are exactly the Hamiltonian fields of degree delta.

    For each degree-delta sample f: ``L_{X'_f} theta = 0`` exactly, and the
    round trip ``Y -> X'_(theta(Y))`` with ``Y := X'_f`` returns Y.
    """
    results: List[CheckResult] = []
    for idx, f in enumerate(samples):
        if f.ell != cc.delta:
            raise ValueError("invariance suite needs samples of degree delta")
        label = f"{cc.label}:sample{idx}"
        y = hamiltonian_field(cc, f.coeff)
        lie = lie_derivative(y, cc.theta)
        results.append(check(f"{label}:theta-invariance", lie.is_zero(), lie))
        g = pairing_with_theta(cc, y)
        results.append(check(f"{label}:moment-recovers-f", g == f.coeff, g - f.coeff))
        dg = degree_of(cc, g)
        results.append(check(f"{label}:moment-degree", g.is_zero() or dg == cc.delta, dg))
        y2 = hamiltonian_field(cc, g)
        results.append(check(f"{label}:round-trip", y2 == y, y2 - y))
    return results


# -- sections, induced structures on the base, cocycles -------------------------------


class SectionMap:
    """A holomorphic local section over one base chart.

    ``images`` sends every total-space variable to a coefficient function on
    the section's own base coordinates; for global charts the distinguished
    ``unit_var`` names the coordinate normalized to 1 (affine section of the
    projectivization), for fibered charts it is the fiber variable.
    """

    __slots__ = ("label", "source", "images", "unit_var")

    def __init__(
        self,
        label: str,
        source: ChartSpace,
        images: Mapping[str, Coeff],
        unit_var: str,
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "images", dict(images))
        object.__setattr__(self, "unit_var", unit_var)

    def __setattr__(self, name, value):
        raise AttributeError("SectionMap is immutable")


class CStructureData:
    """Chart forms gamma_i with rational transition data on the overlaps.

    ``transition_maps[(i, j)]`` expresses chart-j coordinates as rational
    functions of chart-i coordinates; ``factors[(i, j)]`` is the holomorphic
    (rational on the chart, holomorphic on the overlap) function with
    ``gamma_i = f_ij * (coordinate change)^* gamma_j``.
    """

    __slots__ = ("charts", "gammas", "transition_maps", "factors", "gauges")

    def __init__(self, charts, gammas, transition_maps, factors, gauges=None):
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "transition_maps", transition_maps)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "gauges", gauges or {})

    def __setattr__(self, name, value):
        raise AttributeError("CStructureData is immutable")


def rational_pullback_one_form(
    form: PolyForm, images: Mapping[str, RationalFunction]
) -> Dict[str, RationalFunction]:
    """Pull a lam-free polynomial 1-form back along a rational map.

    Returns the coefficient of ``d(new_var)`` for each source variable name.
    """
    out: Dict[str, RationalFunction] = {}
    for (idx,), coeff in form.terms.items():
        name = form.chart.all_vars[idx]
        if coeff.min_exp() < 0 or coeff.max_exp() > 0:
            raise ValueError("rational pullback expects fiber-free coefficients")
        poly = coeff.parts.get(0, MultiPoly.zero(()))
        pulled = compose_rational(poly, images)
        differential = images[name]
        for var in _rational_vars(images):
            d = differential.diff(var)
            if d.is_zero():
                continue
            out[var] = out.get(var, RF_ZERO) + pulled * d
    return {k: v for k, v in out.items() if not v.is_zero()}


def _rational_vars(images: Mapping[str, RationalFunction]) -> List[str]:
    seen: List[str] = []
    for rf in images.values():
        for name in rf.num.vars:
            if name not in seen:
                seen.append(name)
    return seen


def _form_to_rational(form: PolyForm) -> Dict[str, RationalFunction]:
    out: Dict[str, RationalFunction] = {}
    for (idx,), coeff in form.terms.items():
        name = form.chart.all_vars[idx]
        poly = coeff.parts.get(0, MultiPoly.zero(()))
        out[name] = RationalFunction.from_poly(poly)
    return out


def _proportionality_factor(
    target: Mapping[str, RationalFunction], source: Mapping[str, RationalFunction]
) -> Optional[RationalFunction]:
    """f with target = f * source, or None when no such rational factor exists."""
    factor: Optional[RationalFunction] = None
    for name, value in source.items():
        if value.is_zero():
            continue
        t = target.get(name, RF_ZERO)
        candidate = t / value
        if factor is None:
            factor = candidate
        elif factor != candidate:
            return None
    if factor is None:
        return None
    for name, t in target.items():
        if source.get(name, RF_ZERO) * factor != t:
            return None
    return factor


def section_is_valid(cc: ContactChart, section: SectionMap) -> bool:
    """Symbolic right-inverse check of the bundle projection.

    Global charts: the unit coordinate's image is a nonzero constant c and
    every other image equals c times the matching base coordinate, so the
    projectivization returns the chart point.  Fibered charts: the base
    images are the identity and the fiber image is a nonvanishing constant.
    """
    chart = cc.chart
    images = section.images
    if set(images) != set(chart.all_vars):
        return False
    if chart.fiber_var is not None:
        for name in chart.base_vars:
            expected = LaurentPoly.from_poly(MultiPoly.variable(name), images[name].fiber)
            if images[name] != expected:
                return False
        lam_image = images[chart.fiber_var]
        return lam_image.is_constant() and not lam_image.constant_value().is_zero()
    unit_image = images[section.unit_var]
    if not unit_image.is_constant() or unit_image.constant_value().is_zero():
        return False
    c = unit_image.constant_value()
    # Each remaining image must be c times a distinct source coordinate, so
    # that dividing by the unit slot returns exactly the chart point.
    used: set = set()
    for name in chart.all_vars:
        if name == section.unit_var:
            continue
        coord = _single_variable_of(images[name], c)
        if coord is None or coord in used or coord not in section.source.base_vars:
            return False
        used.add(coord)
    return used == set(section.source.base_vars)


def _single_variable_of(image: Coeff, scale: GaussianRational) -> Optional[str]:
    """The source variable v with image = scale * v, if the image has that shape."""
    if image.min_exp() != 0 or image.max_exp() != 0:
        return None
    poly = image.parts.get(0)
    if poly is None or len(poly.terms) != 1:
        return None
    ((expo, coeff),) = poly.terms.items()
    if coeff != scale or sum(expo) != 1:
        return None
    return poly.vars[expo.index(1)]


def hopf_sections(n: int) -> List[SectionMap]:
    """The 2n+2 affine sections of the punctured-space chart over projective space."""
    cc_names = [f"z{i}" for i in range(2 * n + 2)]
    sections = []
    for i in range(2 * n + 2):
        coords = [f"u{j}" for j in range(2 * n + 2) if j != i]
        source = ChartSpace(coords)
        images: Dict[str, Coeff] = {}
        for j in range(2 * n + 2):
            if j == i:
                images[cc_names[j]] = source.coeff_const(1)
            else:
                images[cc_names[j]] = source.coeff_var(f"u{j}")
        sections.append(SectionMap(f"V{i}", source, images, unit_var=cc_names[i]))
    return sections


def projective_transition(n_vars: int, i: int, j: int) -> Dict[str, RationalFunction]:
    """Chart-j affine coordinates of projective space in terms of chart-i ones.

    Convention: chart k uses coordinates ``u_m = zeta_m / zeta_k`` for m != k.
    """
    u = {m: MultiPoly.variable(f"u{m}") for m in range(n_vars) if m != i}
    out: Dict[str, RationalFunction] = {}
    denom = u[j]
    for m in range(n_vars):
        if m == j:
            continue
        if m == i:
            out[f"u{m}"] = RationalFunction(MultiPoly.const(1, denom.vars), denom)
        else:
            out[f"u{m}"] = RationalFunction(u[m], denom)
    return out


def reconstruct_cstructure(cc: ContactChart, sections: Sequence[SectionMap]) -> CStructureData:
    """Pull theta back along each section and assemble the transition data.

    Verifies, exactly: each section is a right inverse of the projection;
    the gauge ``g_ij`` with ``sigma_i = R_(g_ij) sigma_j`` exists as a single
    rational function; ``gamma_i = g_ij^delta * (transition)^* gamma_j``;
    and each ``gamma_i`` satisfies the nonvanishing condition through
    ``gamma ^ (d gamma)^n`` having a nonzero coefficient.
    """
    for section in sections:
        if not section_is_valid(cc, section):
            raise ValueError(f"{section.label} is not a section of the projection")
    labels = [s.label for s in sections]
    gammas = [pullback(s.source, s.images, cc.theta) for s in sections]
    n = (cc.dim - 2) // 2
    for label, gamma in zip(labels, gammas):
        top = gamma.wedge(exterior_derivative(gamma).wedge_power(n))
        if top.is_zero():
            raise ValueError(f"(C.1) fails for {label}: gamma ^ (d gamma)^{n} = 0")
    transition_maps: Dict[Tuple[int, int], Dict[str, RationalFunction]] = {}
    factors: Dict[Tuple[int, int], RationalFunction] = {}
    gauges: Dict[Tuple[int, int], RationalFunction] = {}
    for i, sec_i in enumerate(sections):
        for j, sec_j in enumerate(sections):
            if i == j:
                continue
            trans = _section_transition(cc, sections, i, j)
            transition_maps[(i, j)] = trans
            g_ij = _gauge_ratio(cc, sec_i, sec_j, trans)
            gauges[(i, j)] = g_ij
            f_ij = g_ij**cc.delta
            target = _form_to_rational(gammas[i])
            source = rational_pullback_one_form(gammas[j], trans)
            if _proportionality_factor(target, source) != f_ij:
                raise ValueError(f"(C.2) fails for pair ({labels[i]}, {labels[j]})")
            factors[(i, j)] = f_ij
    return CStructureData(labels, gammas, transition_maps, factors, gauges)


def _section_transition(
    cc: ContactChart, sections: Sequence[SectionMap], i: int, j: int
) -> Dict[str, RationalFunction]:
    if cc.chart.fiber_var is not None:
        # Same base coordinates on a fibered chart: the transition is the identity
        # renaming chart-j names to chart-i names.
        src = sections[i].source
        return {
            name_j: RationalFunction.from_poly(MultiPoly.variable(name_i))
            for name_j, name_i in zip(sections[j].source.all_vars, src.all_vars)
        }
    unit_i = int(sections[i].unit_var[1:])
    unit_j = int(sections[j].unit_var[1:])
    return projective_transition(cc.dim, unit_i, unit_j)


def _gauge_ratio(
    cc: ContactChart,
    sec_i: SectionMap,
    sec_j: SectionMap,
    trans: Mapping[str, RationalFunction],
) -> RationalFunction:
    """g with sigma_i = R_g sigma_j after the coordinate change.

    The action scales the component named ``x`` by ``g^{w_x}``: weight-0
    components must agree outright, weight-1 components each determine g,
    and any other weight is cross-checked against the extracted g.
    """
    deferred: List[Tuple[int, RationalFunction, RationalFunction]] = []
    ratio: Optional[RationalFunction] = None
    for name in cc.chart.all_vars:
        img_j = sec_j.images[name]
        if img_j.min_exp() < 0 or img_j.max_exp() > 0:
            raise ValueError("gauge extraction expects polynomial section images")
        moved = compose_rational(img_j.parts.get(0, MultiPoly.zero(())), trans)
        img_i_rf = RationalFunction.from_poly(sec_i.images[name].parts.get(0, MultiPoly.zero(())))
        weight = cc.weights[name]
        if moved.is_zero():
            if not img_i_rf.is_zero():
                raise ValueError("sections are not related by a scalar gauge")
            continue
        if weight == 0:
            if img_i_rf != moved:
                raise ValueError("weight-0 section components must match on the overlap")
            continue
        if weight == 1:
            candidate = img_i_rf / moved
            if ratio is None:
                ratio = candidate
            elif ratio != candidate:
                raise ValueError("section components give inconsistent gauges")
        else:
            deferred.append((weight, img_i_rf, moved))
    if ratio is None:
        raise ValueError("cannot extract a gauge (no weight-1 component present)")
    for weight, img_i_rf, moved in deferred:
        if moved * ratio**weight != img_i_rf:
            raise ValueError("section components give inconsistent gauges")
    return ratio


def canonical_cocycle_check(cs: CStructureData, n: int) -> List[CheckResult]:
    """Canonical-bundle compatibility: on every overlap,
    ``c_i = f_ij^(n+1) * (c_j o transition) * det(Jacobian of transition)``
    where ``c_k`` is the coefficient of the top form ``gamma_k ^ (d gamma_k)^n``.
    """
    results: List[CheckResult] = []
    tops: List[RationalFunction] = []
    orders: List[List[str]] = []
    for gamma in cs.gammas:
        top = gamma.wedge(exterior_derivative(gamma).wedge_power(n))
        ((key, coeff),) = top.terms.items()
        if list(key) != list(range(top.chart.dim)):
            raise AssertionError("top form key must be the full variable tuple")
        tops.append(RationalFunction.from_poly(coeff.parts[0]))
        orders.append(list(top.chart.all_vars))
    for (i, j), trans in cs.transition_maps.items():
        f_ij = cs.factors[(i, j)]
        jac = [
            [trans[var].diff(u) for var in orders[j]]
            for u in orders[i]
        ]
        det = linalg.determinant(jac, one=RF_ONE)
        moved = compose_rational(tops[j].num, trans) / compose_rational(tops[j].den, trans)
        lhs = tops[i]
        rhs = f_ij ** (n + 1) * moved * det
        results.append(
            check(
                f"cocycle:{cs.charts[i]}->{cs.charts[j]}",
                lhs == rhs,
                f"lhs {lhs} != rhs {rhs}",
            )
        )
    return results


# -- quotient by the sign action ------------------------------------------------------


def quotient_checks(n: int, monomials: Sequence[Coeff], max_m: int = 3) -> List[CheckResult]:
    """The degree-2 chart descends to a degree-1 bundle under the sign action.

    * theta is invariant under ``z -> -z`` (an even form);
    * a seeded monomial descends iff its total degree is even, and an even
      function of degree 2m scales as ``(t^2)^m``, i.e. has degree m for the
      action downstream;
    * the space of even functions of degree 2m upstairs has exactly the
      dimension of the degree-m section space downstairs (binomial count).
    """
    cc = hopf_chart(n)
    chart = cc.chart
    results: List[CheckResult] = []
    flip = {name: chart.coeff_var(name).scale(-1) for name in chart.all_vars}
    flipped = pullback(chart, flip, cc.theta)
    results.append(check(f"hopf(n={n}):theta-sign-invariance", flipped == cc.theta, flipped - cc.theta))
    # The scaling weight of theta is 2 = 2 * 1: with the downstairs parameter
    # equal to the square of the upstairs one, the descended form has exact
    # degree 1 (the weighted identity for the quotient bundle).
    parts = scaled_parts(cc, cc.theta)
    descended_degree = None
    if set(parts) == {2} and parts[2] == cc.theta:
        descended_degree = 1
    results.append(
        check(
            f"hopf(n={n}):descended-form-degree-1",
            descended_degree == 1,
            f"scaling components {sorted(parts)}",
        )
    )
    for idx, mono in enumerate(monomials):
        degree = mono.weighted_degree(cc.weights)
        if degree is None:
            raise ValueError("quotient suite expects monomial samples")
        flipped_f = mono.substitute_base(
            {name: -MultiPoly.variable(name) for name in chart.base_vars}
        )
        descends = flipped_f == mono
        parity_ok = descends == (degree % 2 == 0)
        results.append(
            check(f"hopf(n={n}):descent-parity-{idx}", parity_ok, f"deg {degree}, descends={descends}")
        )
        if descends:
            # f(t z) = t^(2m) f(z) = (t^2)^m f(z): degree m downstairs.
            results.append(
                check(
                    f"hopf(n={n}):equivariance-{idx}",
                    degree % 2 == 0 and scaling_degree(cc, mono) == degree,
                    f"degree {degree}",
                )
            )
    for m in range(max_m + 1):
        upstairs = len(monomial_basis(2 * n + 1, 2 * m))
        downstairs = homogeneous_space_dim(2 * n + 1, 2 * m)
        results.append(
            check(
                f"hopf(n={n}):dimension-m{m}",
                upstairs == downstairs,
                f"{upstairs} != {downstairs}",
            )
        )
    return results


# -- immersion rank data --------------------------------------------------------------


class RankReport:
    """Per-point Jacobian and tangent-span ranks for an associated map."""

    __slots__ = ("rows", "full_rank")

    def __init__(self, rows: List[dict], full_rank: int):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "full_rank", full_rank)

    def __setattr__(self, name, value):
        raise AttributeError("RankReport is immutable")

    def all_full(self) -> bool:
        return all(r["jacobian_rank"] == self.full_rank for r in self.rows)

    def consistent(self) -> bool:
        return all(r["jacobian_rank"] == r["span_rank"] for r in self.rows)


def immersion_rank(
    cc: ContactChart,
    fs: Sequence[HomogeneousFunction],
    points: Sequence[Mapping[str, GaussianRational]],
) -> RankReport:
    """Exact rank of the associated map's Jacobian at each sample point,
    cross-checked against the dimension of the Hamiltonian-field span.

    The two ranks agree point by point: the span of the ``X'_{f_j}`` at a
    point is the full tangent space exactly when the differential of
    ``F = (f_0, ..., f_N)`` is injective there.  When the rank is full,
    ``F`` itself cannot vanish at the point, which the rows record.
    """
    if not fs:
        raise ValueError("need at least one function")
    degrees = {f.ell for f in fs}
    if len(degrees) != 1 or 0 in degrees:
        raise ValueError("all functions must share one nonzero degree")
    chart = cc.chart
    fields = [hamiltonian_field(cc, f.coeff) for f in fs]
    rows: List[dict] = []
    for point in points:
        _require_admissible_point(cc, point)
        jac = []
        for f in fs:
            jac.append(
                [f.coeff.diff(name).evaluate(point) for name in chart.all_vars]
            )
        jac_rank = linalg.rank(jac)
        span = []
        for field in fields:
            values = field.evaluate(point)
            span.append([values.get(i, ZERO) for i in range(chart.dim)])
        span_rank = linalg.rank(span)
        values_f = [f.coeff.evaluate(point) for f in fs]
        rows.append(
            {
                "point": _point_str(point),
                "jacobian_rank": jac_rank,
                "span_rank": span_rank,
                "f_nonzero": any(not v.is_zero() for v in values_f),
            }
        )
    return RankReport(rows, chart.dim)


def _require_admissible_point(cc: ContactChart, point: Mapping[str, GaussianRational]) -> None:
    if cc.chart.fiber_var is not None:
        if point[cc.chart.fiber_var].is_zero():
            raise ValueError("fiber coordinate must be nonzero")
    else:
        if all(point[name].is_zero() for name in cc.chart.all_vars):
            raise ValueError("the origin is outside the punctured chart")


# -- homogeneous section spaces -------------------------------------------------------


def homogeneous_space_dim(n_proj: int, m: int) -> int:
    """Dimension of the degree-m homogeneous functions on C^{N+1} minus 0,
    N = n_proj: binomial(N + m, N).  These realize the order-m section space
    of the hyperplane-class bundle, with the tautological pairing realized by
    :func:`evaluation_pairing`.
    """
    if n_proj < 1:
        raise ValueError("projective dimension must be >= 1 (the punctured line has extra functions)")
    if m < 0:
        raise ValueError("degree must be non-negative")
    return _binomial(n_proj + m, n_proj)


def _binomial(a: int, b: int) -> int:
    from math import comb

    return comb(a, b)


def monomial_basis(n_proj: int, m: int) -> List[MultiPoly]:
    """All degree-m monomials in z0..zN, graded-lex order (the section basis)."""
    names = tuple(f"z{i}" for i in range(n_proj + 1))
    out: List[MultiPoly] = []
    for expo in _compositions(m, n_proj + 1):
        out.append(MultiPoly(names, {tuple(expo): ONE}))
    return out


def _compositions(total: int, slots: int) -> List[Tuple[int, ...]]:
    if slots == 1:
        return [(total,)]
    out: List[Tuple[int, ...]] = []
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, slots - 1):
            out.append((head,) + rest)
    return out


def evaluation_pairing(phi: MultiPoly, eta: Mapping[str, GaussianRational]) -> GaussianRational:
    """Value of a section at a frame point: the pairing of ``eta^(x m)`` with
    the symmetric tensor of ``phi`` is plain polynomial evaluation."""
    return phi.evaluate(eta)


def cstructure_from_charts(
    labels: Sequence[str],
    gammas: Sequence[PolyForm],
    transition_maps: Mapping[Tuple[int, int], Mapping[str, RationalFunction]],
    n: int,
) -> CStructureData:
    """Assemble c-structure data from raw chart forms and coordinate changes.

    The compatibility factors f_ij are extracted from the proportionality
    ``gamma_i = f_ij * (transition)^* gamma_j`` and their existence is the
    (C.2) check; the top-form nonvanishing is the (C.1) check.
    """
    for label, gamma in zip(labels, gammas):
        top = gamma.wedge(exterior_derivative(gamma).wedge_power(n))
        if top.is_zero():
            raise ValueError(f"(C.1) fails for {label}")
    factors: Dict[Tuple[int, int], RationalFunction] = {}
    for (i, j), trans in transition_maps.items():
        target = _form_to_rational(gammas[i])
        source = rational_pullback_one_form(gammas[j], dict(trans))
        factor = _proportionality_factor(target, source)
        if factor is None:
            raise ValueError(f"(C.2) fails for pair ({labels[i]}, {labels[j]})")
        factors[(i, j)] = factor
    return CStructureData(list(labels), list(gammas), dict(transition_maps), factors)


def projective_line_cstructure() -> CStructureData:
    """The two-chart structure gamma_i = dz_i on the projective line."""
    c0 = ChartSpace(["u1"])
    c1 = ChartSpace(["u0"])
    gamma0 = PolyForm.d_var(c0, "u1")
    gamma1 = PolyForm.d_var(c1, "u0")
    u1 = MultiPoly.variable("u1")
    u0 = MultiPoly.variable("u0")
    one = MultiPoly.const(1, ("u1",))
    one0 = MultiPoly.const(1, ("u0",))
    maps = {
        (0, 1): {"u0": RationalFunction(one, u1)},
        (1, 0): {"u1": RationalFunction(one0, u0)},
    }
    return cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps, 0)
