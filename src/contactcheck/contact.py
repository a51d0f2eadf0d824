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
from math import comb
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .forms import (
    ChartSpace,
    Coeff,
    PolyForm,
    PolyVectorField,
    exterior_derivative,
    lie_derivative,
    pullback,
)
from .poly import MultiPoly
from .report import CheckResult, check
from .scalars import GaussianRational, ONE


class ContactChart:
    """One trivializing chart of a principal contact bundle of degree delta."""

    __slots__ = ("chart", "theta", "dtheta", "delta", "weights", "label", "_solver", "_euler")

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
        object.__setattr__(self, "dtheta", exterior_derivative(theta))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_solver", None)
        object.__setattr__(self, "_euler", None)
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
    """A chart-ring function of exact scaling degree ``ell``."""

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
        return f"HomogeneousFunction(deg {self.ell}: {self.cc.chart.format(self.coeff)})"


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
    lam_pow = chart.coeff_var("lam") ** delta
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


def _contraction_rows(cc: ContactChart) -> List[Dict[int, Coeff]]:
    """Row i holds the components of ``iota_{d/dx_i} dtheta``, a sparse vector.

    For ``dtheta = sum_{i<j} c_ij dx_i ^ dx_j`` row i is ``c_ij`` at j and row
    j is ``-c_ij`` at i.  The rows are the columns of the matrix M of ``X ->
    iota_X dtheta`` on components, so the rows of their inverse are the
    columns of ``M^-1``.
    """
    rows: List[Dict[int, Coeff]] = [{} for _ in range(cc.dim)]
    for (i, j), coeff in cc.dtheta.terms.items():
        rows[i][j] = coeff
        rows[j][i] = -coeff
    return rows


def _symplectic_solver(cc: ContactChart) -> List[Dict[int, Coeff]]:
    """The columns of ``M^-1`` over the chart ring, cached per chart.

    Its determinant is a unit ``c * fiber^k`` exactly when dtheta is
    nondegenerate on the whole chart, so any other determinant violates the
    symplectic axiom.  Elimination pivots on the first chart-ring unit of
    each column (:meth:`ChartSpace.is_unit`), so a non-unit entry above it
    does not stop the solve.

    Concurrent first calls may both compute the inverse; they produce the
    same immutable columns, so last-write-wins is safe.
    """
    if cc._solver is not None:
        return cc._solver
    try:
        chart = cc.chart
        columns = linalg.inverse(_contraction_rows(cc), chart.coeff_const(1), chart.is_unit)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(
            f"dtheta is not invertible over the Laurent ring on {cc.label}: {exc}"
        ) from exc
    object.__setattr__(cc, "_solver", columns)
    return columns


def _solve_contraction(cc: ContactChart, target: PolyForm) -> PolyVectorField:
    """The field X with ``iota_X dtheta = target`` (exact, chart-ring components)."""
    coeffs = {i: coeff for (i,), coeff in target.terms.items()}
    return PolyVectorField(cc.chart, linalg.combine(coeffs, _symplectic_solver(cc)))


def solved_euler_field(cc: ContactChart) -> PolyVectorField:
    """The solution of ``iota_X dtheta = -theta``, solved once and cached per chart.

    It is the solved field, not checked against the closed form, so a corrupted
    theta surfaces as failed checks downstream rather than as an exception.
    """
    if cc._euler is None:
        object.__setattr__(cc, "_euler", _solve_contraction(cc, -cc.theta))
    return cc._euler


def euler_field(cc: ContactChart) -> PolyVectorField:
    """The field dual to -theta under dtheta; equals -(1/delta) * vertical field."""
    solved = solved_euler_field(cc)
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
    return cc.dtheta.apply(hamiltonian_field(cc, f), hamiltonian_field(cc, g))


# -- homogeneity -------------------------------------------------------------------


def degree_of(cc: ContactChart, f: Coeff) -> Optional[int]:
    """Degree via the Euler operator: the integer ell with ``Xi f = -(ell/delta) f``.

    ``Xi`` is the chart's cached :func:`solved_euler_field`, not
    :func:`euler_field`'s checked one: on a corrupted theta the disagreement
    must surface as a failed check, not an exception.  Returns None when f is
    not homogeneous.  The independent combinatorial route is
    :func:`scaling_degree`; the two must agree on every input.
    """
    if f.is_zero():
        return 0
    xi = solved_euler_field(cc)
    image = xi.apply_to(f)
    # candidate scalar from any single matching term
    expo0, c0 = next(iter(f.terms.items()))
    ratio = image.coefficient_of(dict(zip(f.vars, expo0))) / c0
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
    results.append(
        check(f"{label}:vertical-annihilation", vertical.is_zero(), cc.chart.format(vertical))
    )
    parts = scaled_parts(cc, cc.theta)
    scaling_ok = set(parts) == {cc.delta} and parts[cc.delta] == cc.theta
    witness = "" if scaling_ok else ", ".join(f"t^{d}: {p}" for d, p in sorted(parts.items()))
    results.append(check(f"{label}:scaling-degree-{cc.delta}", scaling_ok, witness))
    top = cc.dtheta.wedge_power(cc.dim // 2)
    results.append(check(f"{label}:symplectic-top-form", not top.is_zero(), "top power vanished"))
    rows = _contraction_rows(cc)
    for idx, point in enumerate(points):
        values = ({j: entry.evaluate(point) for j, entry in row.items()} for row in rows)
        ok = linalg.rank(values) == cc.dim
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
    ok = lhs == rhs
    witness = "" if ok else cc.chart.format(lhs - rhs)
    results.append(check(f"{label}:theta-of-hamiltonian", ok, witness))
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
    pois = cc.dtheta.apply(xf, xg)
    x_pois = hamiltonian_field(cc, pois)
    ok = bracket == x_pois
    witness = "" if ok else f"[Xf,Xg] = {bracket}; X_poisson = {x_pois}"
    results.append(check(f"{label}:bracket-is-hamiltonian", ok, witness))
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
    expected = {idx: [f.ell - delta] for idx in xf.components}
    found = field_scaling_degrees(cc, xf)
    ok = found == expected
    witness = "" if ok else f"{found} != {expected}"
    results.append(check(f"{label}:pushforward-scaling", ok, witness))
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
        ok = g == f.coeff
        witness = "" if ok else cc.chart.format(g - f.coeff)
        results.append(check(f"{label}:moment-recovers-f", ok, witness))
        dg = degree_of(cc, g)
        results.append(check(f"{label}:moment-degree", g.is_zero() or dg == cc.delta, dg))
        y2 = hamiltonian_field(cc, g)
        ok = y2 == y
        results.append(check(f"{label}:round-trip", ok, "" if ok else y2 - y))
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
    """Chart forms gamma_i with Laurent transition data on the overlaps.

    ``transition_maps[(i, j)]`` expresses chart-j coordinates as Laurent
    polynomials in chart-i coordinates; ``factors[(i, j)]`` is the Laurent
    polynomial (holomorphic on the overlap) with
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
    form: PolyForm, images: Mapping[str, MultiPoly]
) -> Dict[str, MultiPoly]:
    """Pull a lam-free polynomial 1-form back along a Laurent map.

    Returns the coefficient of ``d(new_var)`` for each source variable name.
    """
    out: Dict[str, MultiPoly] = {}
    for (idx,), coeff in form.terms.items():
        pulled = form.chart.base_part(coeff).substitute(images)
        differential = images[form.chart.all_vars[idx]]
        for var in differential.vars:
            d = differential.diff(var)
            if not d.is_zero():
                out[var] = out[var] + pulled * d if var in out else pulled * d
    return {k: v for k, v in out.items() if not v.is_zero()}


def _proportionality_factor(
    target: Mapping[str, MultiPoly], source: Mapping[str, MultiPoly]
) -> Optional[MultiPoly]:
    """f with target = f * source, or None when no such Laurent factor exists."""
    factor: Optional[MultiPoly] = None
    for name, value in source.items():
        if value.is_zero():
            continue
        try:
            candidate = target.get(name, MultiPoly.zero()) / value
        except ArithmeticError:
            return None
        if factor is None:
            factor = candidate
        elif factor != candidate:
            return None
    if factor is None:
        return None
    for name, t in target.items():
        if source.get(name, MultiPoly.zero()) * factor != t:
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
            if images[name] != MultiPoly.variable(name):
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
    if len(image.terms) != 1:
        return None
    ((expo, coeff),) = image.terms.items()
    if coeff != scale or sum(expo) != 1 or min(expo) < 0:
        return None
    return image.vars[expo.index(1)]


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


def projective_transition(n_vars: int, i: int, j: int) -> Dict[str, MultiPoly]:
    """Chart-j affine coordinates of projective space in terms of chart-i ones.

    Convention: chart k uses coordinates ``u_m = zeta_m / zeta_k`` for m != k.
    """
    u = {m: MultiPoly.variable(f"u{m}") for m in range(n_vars) if m != i}
    return {
        f"u{m}": u[j] ** -1 if m == i else u[m] / u[j] for m in range(n_vars) if m != j
    }


def reconstruct_cstructure(cc: ContactChart, sections: Sequence[SectionMap]) -> CStructureData:
    """Pull theta back along each section and assemble the transition data.

    Verifies, exactly: each section is a right inverse of the projection;
    the (C.1) and (C.2) checks of :func:`cstructure_from_charts` on the
    pulled-back forms; the gauge ``g_ij`` with ``sigma_i = R_(g_ij) sigma_j``
    exists as a single Laurent polynomial; and each compatibility factor is
    ``g_ij^delta``.
    """
    for section in sections:
        if not section_is_valid(cc, section):
            raise ValueError(f"{section.label} is not a section of the projection")
    labels = [s.label for s in sections]
    gammas = [pullback(s.source, s.images, cc.theta) for s in sections]
    pairs = [(i, j) for i in range(len(sections)) for j in range(len(sections)) if i != j]
    transition_maps = {(i, j): _section_transition(cc, sections, i, j) for i, j in pairs}
    cs = cstructure_from_charts(labels, gammas, transition_maps, (cc.dim - 2) // 2)
    gauges: Dict[Tuple[int, int], MultiPoly] = {}
    for i, j in pairs:
        gauges[(i, j)] = _gauge_ratio(cc, sections[i], sections[j], transition_maps[(i, j)])
        if cs.factors[(i, j)] != gauges[(i, j)] ** cc.delta:
            raise ValueError(f"(C.2) fails for pair ({labels[i]}, {labels[j]})")
    return CStructureData(cs.charts, cs.gammas, cs.transition_maps, cs.factors, gauges)


def _section_transition(
    cc: ContactChart, sections: Sequence[SectionMap], i: int, j: int
) -> Dict[str, MultiPoly]:
    if cc.chart.fiber_var is not None:
        # Same base coordinates on a fibered chart: the transition is the identity
        # renaming chart-j names to chart-i names.
        src = sections[i].source
        return {
            name_j: MultiPoly.variable(name_i)
            for name_j, name_i in zip(sections[j].source.all_vars, src.all_vars)
        }
    unit_i = int(sections[i].unit_var[1:])
    unit_j = int(sections[j].unit_var[1:])
    return projective_transition(cc.dim, unit_i, unit_j)


def _gauge_ratio(
    cc: ContactChart,
    sec_i: SectionMap,
    sec_j: SectionMap,
    trans: Mapping[str, MultiPoly],
) -> MultiPoly:
    """g with sigma_i = R_g sigma_j after the coordinate change.

    The action scales the component named ``x`` by ``g^{w_x}``: weight-0
    components must agree outright, weight-1 components each determine g,
    and any other weight is cross-checked against the extracted g.
    """
    deferred: List[Tuple[int, MultiPoly, MultiPoly]] = []
    ratio: Optional[MultiPoly] = None
    for name in cc.chart.all_vars:
        moved = sec_j.source.base_part(sec_j.images[name]).substitute(trans)
        img_i = sec_i.source.base_part(sec_i.images[name])
        weight = cc.weights[name]
        if moved.is_zero():
            if not img_i.is_zero():
                raise ValueError("sections are not related by a scalar gauge")
            continue
        if weight == 0:
            if img_i != moved:
                raise ValueError("weight-0 section components must match on the overlap")
            continue
        if weight == 1:
            try:
                candidate = img_i / moved
            except ArithmeticError:
                raise ValueError("sections are not related by a scalar gauge") from None
            if ratio is None:
                ratio = candidate
            elif ratio != candidate:
                raise ValueError("section components give inconsistent gauges")
        else:
            deferred.append((weight, img_i, moved))
    if ratio is None:
        raise ValueError("cannot extract a gauge (no weight-1 component present)")
    for weight, img_i, moved in deferred:
        if moved * ratio**weight != img_i:
            raise ValueError("section components give inconsistent gauges")
    return ratio


def canonical_cocycle_check(cs: CStructureData, n: int) -> List[CheckResult]:
    """Canonical-bundle compatibility: on every overlap,
    ``c_i = f_ij^(n+1) * (c_j o transition) * det(Jacobian of transition)``
    where ``c_k`` is the coefficient of the top form ``gamma_k ^ (d gamma_k)^n``.
    """
    results: List[CheckResult] = []
    tops: List[MultiPoly] = []
    orders: List[List[str]] = []
    for gamma in cs.gammas:
        top = gamma.wedge(exterior_derivative(gamma).wedge_power(n))
        ((key, coeff),) = top.terms.items()
        if list(key) != list(range(top.chart.dim)):
            raise AssertionError("top form key must be the full variable tuple")
        tops.append(top.chart.base_part(coeff))
        orders.append(list(top.chart.all_vars))
    for (i, j), trans in cs.transition_maps.items():
        f_ij = cs.factors[(i, j)]
        # Sparse rows: an image without the variable u has a 0 entry (diff rejects u).
        jac = [
            {c: trans[var].diff(u) for c, var in enumerate(orders[j]) if u in trans[var].vars}
            for u in orders[i]
        ]
        det = linalg.determinant(jac)
        lhs = tops[i]
        rhs = f_ij ** (n + 1) * tops[j].substitute(trans) * det
        ok = lhs == rhs
        results.append(
            check(f"cocycle:{cs.charts[i]}->{cs.charts[j]}", ok, "" if ok else f"lhs {lhs} != rhs {rhs}")
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
    even = flipped == cc.theta
    results.append(check(f"hopf(n={n}):theta-sign-invariance", even, "" if even else flipped - cc.theta))
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
        flipped_f = mono.substitute({name: -MultiPoly.variable(name) for name in chart.base_vars})
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
        jac_rank = linalg.rank(
            {k: f.coeff.diff(name).evaluate(point) for k, name in enumerate(chart.all_vars)}
            for f in fs
        )
        span_rank = linalg.rank(field.evaluate(point) for field in fields)
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
    return comb(n_proj + m, n_proj)


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
    transition_maps: Mapping[Tuple[int, int], Mapping[str, MultiPoly]],
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
            raise ValueError(f"(C.1) fails for {label}: gamma ^ (d gamma)^{n} = 0")
    factors: Dict[Tuple[int, int], MultiPoly] = {}
    for (i, j), trans in transition_maps.items():
        target = {
            gammas[i].chart.all_vars[idx]: gammas[i].chart.base_part(coeff)
            for (idx,), coeff in gammas[i].terms.items()
        }
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
    maps = {
        (0, 1): {"u0": MultiPoly.variable("u1") ** -1},
        (1, 0): {"u1": MultiPoly.variable("u0") ** -1},
    }
    return cstructure_from_charts(["V0", "V1"], [gamma0, gamma1], maps, 0)
