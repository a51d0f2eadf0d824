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

from itertools import combinations_with_replacement
from math import comb
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from . import linalg
from .forms import (
    ChartMap,
    ChartSpace,
    Coeff,
    PolyForm,
    PolyVectorField,
    exterior_derivative,
    lie_derivative,
)
from .linalg import add_scaled, scaled_triple
from .poly import Exponent, MultiPoly, TermMap, from_sum
from .report import CheckResult, check
from .scalars import GaussianRational, Immutable, ONE, ZERO


class ContactChart(Immutable):
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
        degrees = form_scaling_degrees(self, theta)
        if degrees != {delta}:
            raise ValueError(
                f"theta is not weight-homogeneous of degree {delta}: components {sorted(degrees)}"
            )

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


class HomogeneousFunction(Immutable):
    """A chart-ring function of exact scaling degree ``ell``."""

    __slots__ = ("cc", "coeff", "ell")

    def __init__(self, cc: ContactChart, coeff: Coeff, ell: int):
        cc.chart.require_spelled(coeff)
        degree = coeff.weighted_degree(cc.weights)
        if not coeff.is_zero() and degree != ell:
            raise ValueError(f"function is not homogeneous of degree {ell} (got {degree})")
        object.__setattr__(self, "cc", cc)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "ell", ell)

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


def form_scaling_degrees(cc: ContactChart, form: PolyForm) -> Set[int]:
    """The t-degrees of the pulled-back form under ``x -> t^w x``.

    ``dx_i`` contributes weight ``w_i`` on top of the coefficient's weight, so
    a form is scaling-homogeneous of degree d iff this set is {d}.
    """
    names, weights = cc.chart.all_vars, cc.weights
    return {
        deg + sum(weights[names[i]] for i in key)
        for key, coeff in form.terms.items()
        for deg in coeff.weighted_degrees(weights)
    }


def field_scaling_degrees(cc: ContactChart, field: PolyVectorField) -> Dict[int, List[int]]:
    """For each component i, the weighted degrees present, shifted by -w_i.

    A component of weighted degree ``w_i + d`` enters here as ``d``, and a
    field satisfies ``R_{t*} X = t^{-d} X`` iff every component index maps
    to the single degree ``d``: a Hamiltonian field ``X'_f`` of degree ell
    has ``d = ell - delta``, and the Euler field has all entries equal to 0.
    """
    out: Dict[int, List[int]] = {}
    for idx, coeff in field.components.items():
        w = cc.weights[cc.chart.all_vars[idx]]
        out[idx] = sorted(deg - w for deg in coeff.weighted_degrees(cc.weights))
    return out


# -- the symplectic solver ---------------------------------------------------------


def _contraction_rows(cc: ContactChart) -> List[Dict[int, Coeff]]:
    """Row i holds the components of ``iota_{d/dx_i} (-dtheta)``, a sparse vector.

    For ``dtheta = sum_{i<j} c_ij dx_i ^ dx_j`` row i is ``-c_ij`` at j and
    row j is ``c_ij`` at i.  The rows are the columns of the matrix ``-M``,
    where M is ``X -> iota_X dtheta`` on components, so the rows of their
    inverse are the columns of ``-M^-1``.  They are the one matrix of dtheta:
    :func:`_symplectic_solver` inverts them, and :func:`verify_axioms`
    eliminates them over the chart ring and at each sample point, where the
    sign does not matter.
    """
    rows: List[Dict[int, Coeff]] = [{} for _ in range(cc.dim)]
    for (i, j), coeff in cc.dtheta.terms.items():
        rows[i][j] = -coeff
        rows[j][i] = coeff
    return rows


def _symplectic_solver(cc: ContactChart) -> List[Dict[int, Coeff]]:
    """The columns of ``-M^-1`` over the chart ring, cached per chart.

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


def _solve_pieces(
    cc: ContactChart, pieces: Iterable[Tuple[int, int, GaussianRational, Exponent]]
) -> PolyVectorField:
    """The field X with ``iota_X dtheta = -target`` (exact, chart-ring components).

    ``target`` is the 1-form ``sum k * c * u^e dx_i`` over its monomial
    ``pieces`` ``(i, k, c, e)``, each an int ``k`` times a scalar ``c``.  X is
    ``-M^-1`` applied to its components, the combination
    ``X_m = sum k * c * u^e * S_i[m]`` of the solver's columns S_i, summed
    where the products are made, into one exponent -> scalar dict per
    component: no target form, no negated target and no scalar ``k * c`` is
    built.
    """
    columns = _symplectic_solver(cc)
    sums: List[TermMap] = [{} for _ in columns]
    for i, k, c, e in pieces:
        t = scaled_triple(c, k)
        for m, entry in columns[i].items():
            add_scaled(sums[m], t, entry.terms, e)
    names = cc.chart.all_vars
    return PolyVectorField(cc.chart, {m: from_sum(names, total) for m, total in enumerate(sums) if total})


def _solve_contraction(cc: ContactChart, target: PolyForm) -> PolyVectorField:
    """The field X with ``iota_X dtheta = -target``, for a 1-form ``target``."""
    terms = target.terms.items()
    return _solve_pieces(
        cc, ((i, 1, c, e) for (i,), coeff in terms for e, c in coeff.terms.items())
    )


def solved_euler_field(cc: ContactChart) -> PolyVectorField:
    """The solution of ``iota_X dtheta = -theta``, solved once and cached per chart.

    It is the solved field, not checked against the closed form, so a corrupted
    theta surfaces as failed checks downstream rather than as an exception.
    """
    if cc._euler is None:
        object.__setattr__(cc, "_euler", _solve_contraction(cc, cc.theta))
    return cc._euler


def euler_field(cc: ContactChart) -> PolyVectorField:
    """The field dual to -theta under dtheta; equals -(1/delta) * vertical field."""
    solved = solved_euler_field(cc)
    candidate = cc.vertical_field().scale(-ONE / cc.delta)
    if solved != candidate:
        raise ArithmeticError(
            f"euler field solve disagrees with the closed form: {solved} vs {candidate}"
        )
    return solved


def hamiltonian_field(cc: ContactChart, f: Coeff) -> PolyVectorField:
    """(1,0)-part of the Hamiltonian field: solves ``iota_X dtheta = -df``.

    The pieces of ``df = sum_i df/dx_i dx_i`` are the partials' terms, read
    in one pass over the terms of ``f``, so no df form is built.
    """
    cc.chart.require_spelled(f)
    return _solve_pieces(cc, f.partial_terms())


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
    ratio = image.terms.get(expo0, ZERO) / c0
    if image != f.scale(ratio):
        return None
    return (ratio * GaussianRational(-cc.delta)).integer()


def scaling_degree(cc: ContactChart, f: Coeff) -> Optional[int]:
    """Degree via the weighted substitution ``x -> t^w x``; None if inhomogeneous."""
    return f.weighted_degree(cc.weights)


# -- axiom suite --------------------------------------------------------------------


def verify_axioms(cc: ContactChart, points: Sequence[Mapping[str, GaussianRational]] = ()) -> List[CheckResult]:
    """Check the bundle axioms on this chart.

    * vertical annihilation: theta kills the scaling generator;
    * scaling: the pulled-back theta is ``t^delta * theta``, read off the
      t-degrees of its terms.  It restates the :class:`ContactChart`
      constructor's guard, so it cannot fail; it stays only for the report
      bytes;
    * symplectic: the determinant of dtheta is a unit ``c * fiber^k`` (so
      ``(dtheta)^(n+1)`` is a nonzero top form), decided by the elimination
      loop and pivot rule of :func:`_symplectic_solver`, so the check passes
      exactly when :func:`hamiltonian_field` solves on the chart.  Its
      witness names the differentials with no pivot, or the column with no
      unit pivot.  And the dtheta coefficient matrix is nonsingular at every
      supplied rational point.
    """
    label = cc.label
    results: List[CheckResult] = []
    vertical = pairing_with_theta(cc, cc.vertical_field())
    results.append(
        check(f"{label}:vertical-annihilation", vertical.is_zero(), cc.chart.format(vertical))
    )
    degrees = form_scaling_degrees(cc, cc.theta)
    witness = f"scaling components {sorted(degrees)}"
    results.append(check(f"{label}:scaling-degree-{cc.delta}", degrees == {cc.delta}, witness))
    rows = _contraction_rows(cc)
    try:
        kept = linalg.echelon(rows, cc.chart.coeff_const(1), cc.chart.is_unit)
        missing = ", ".join(f"d{x}" for j, x in enumerate(cc.chart.all_vars) if j not in kept)
        witness = f"no pivot on {missing}" if missing else ""
    except ZeroDivisionError as exc:
        witness = str(exc)
    results.append(check(f"{label}:symplectic-top-form", not witness, witness))
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
    rhs = f.coeff.scale(GaussianRational(f.ell) / delta)
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


class CStructureData(Immutable):
    """Chart forms gamma_i with Laurent transition data on the overlaps.

    ``transition_maps[(i, j)]`` is the :class:`~contactcheck.forms.ChartMap`
    from chart i to chart j, whose images express chart-j coordinates as
    Laurent polynomials in chart-i coordinates; ``factors[(i, j)]`` is the
    Laurent polynomial (holomorphic on the overlap) with
    ``gamma_i = f_ij * transition_maps[(i, j)].pull(gamma_j)``.  Everything on the
    overlap of charts i and j is spelled over chart i's coordinates.  A label
    given to two charts, a pair ``(i, j)`` with an index outside
    ``range(len(gammas))``, a transition that is not a ``ChartMap`` between
    the charts, or a pair that has a transition or a factor but not both
    raises ``ValueError``.  The factor values themselves are not checked: a
    wrong one fails the cocycle check.

    The forms share one odd dimension 2n + 1, which fixes n, and each top form
    ``gamma_i ^ (d gamma_i)^n`` is built here, once, into ``tops``.  (C.1): its
    coefficient is a unit of the chart ring, so the top is nowhere zero.
    """

    __slots__ = ("charts", "gammas", "transition_maps", "factors", "gauges", "tops")

    def __init__(self, charts, gammas, transition_maps, factors, gauges=None):
        for k, label in enumerate(charts):
            if label in charts[:k]:
                raise ValueError(f"the label {label} names more than one chart")
        dims = {gamma.chart.dim for gamma in gammas}
        if len(dims) > 1 or any(dim % 2 == 0 for dim in dims):
            raise ValueError(f"c-structure chart forms need one odd dimension 2n + 1, not {sorted(dims)}")
        tops = [gamma.wedge(exterior_derivative(gamma).wedge_power(gamma.chart.dim // 2)) for gamma in gammas]
        for label, top in zip(charts, tops, strict=True):
            if not top.chart.is_unit(top.terms.get(tuple(range(top.chart.dim)), top.chart.coeff_zero())):
                raise ValueError(f"(C.1) fails for {label}: gamma ^ (d gamma)^{top.degree // 2} = {top}")
        for (i, j), trans in transition_maps.items():
            if not (0 <= i < len(gammas) and 0 <= j < len(gammas)):
                raise ValueError(f"transition_maps key {(i, j)} names a chart outside 0..{len(gammas) - 1}")
            if not isinstance(trans, ChartMap) or (trans.source, trans.target) != (gammas[i].chart, gammas[j].chart):
                raise ValueError(f"transition_maps[{(i, j)}] is not a ChartMap from {charts[i]} to {charts[j]}")
        for pair in (*transition_maps, *factors):
            if (pair in transition_maps) != (pair in factors):
                raise ValueError(f"transition_maps and factors differ on the pair {pair}: each needs both")
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "transition_maps", transition_maps)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "gauges", gauges or {})
        object.__setattr__(self, "tops", tops)


def _proportionality_factor(target: PolyForm, source: PolyForm) -> Optional[MultiPoly]:
    """The unit f with target = f * source, or None when there is none.

    A unit ``c * u^e`` shifts every exponent alike, so on any one term of
    ``source`` it sends the lexicographically largest monomial of the
    coefficient to that of ``target``'s: their ratio is the one candidate,
    and one scaling of the whole form checks it.
    """
    key = next(iter(source.terms), None)
    if key is None or key not in target.terms:
        return None
    a, b = target.terms[key], source.terms[key]
    top_a, top_b = max(a.terms), max(b.terms)
    factor = MultiPoly(a.vars, {top_a: a.terms[top_a]}) / MultiPoly(b.vars, {top_b: b.terms[top_b]})
    return factor if source.scale(factor) == target else None


def _section_coordinates(cc: ContactChart, section: ChartMap) -> Optional[Tuple[str, Dict[str, str]]]:
    """The unit variable of ``section`` and the source coordinate ``v`` of each
    other chart variable ``x``, or None when the map breaks the section rule
    of :func:`reconstruct_cstructure`."""
    if section.target != cc.chart:
        return None
    images = section.images
    units = [x for x, image in images.items() if cc.weights[x] == 1 and image.is_constant() and not image.is_zero()]
    if len(units) != 1:
        return None
    unit = units[0]
    c = images[unit].constant_value()
    source = section.source
    coords: Dict[str, str] = {}
    for name in cc.chart.all_vars:
        if name == unit:
            continue
        image = images[name]
        expo = next(iter(image.terms), ())
        v = image.vars[expo.index(1)] if 1 in expo else None
        if v not in source.base_vars or v in coords.values():
            return None
        if image != source.coeff_var(v).scale(c ** cc.weights[name]):
            return None
        coords[name] = v
    return (unit, coords) if len(coords) == len(source.base_vars) else None


def hopf_sections(n: int) -> Dict[str, ChartMap]:
    """The 2n+2 affine sections ``V0 .. V{2n+1}`` of the punctured-space chart
    over projective space, each a map to ``hopf_chart(n).chart``."""
    target = hopf_chart(n).chart
    sections = {}
    for i in range(2 * n + 2):
        source = ChartSpace([f"u{j}" for j in range(2 * n + 2) if j != i])
        one = source.coeff_const(1)
        images = {x: one if j == i else source.coeff_var(f"u{j}") for j, x in enumerate(target.all_vars)}
        sections[f"V{i}"] = ChartMap(source, target, images)
    return sections


def reconstruct_cstructure(cc: ContactChart, sections: Mapping[str, ChartMap]) -> CStructureData:
    """Pull theta back along each section and assemble the transition data.

    ``sections`` maps each chart label to a holomorphic local section over
    that base chart: a :class:`~contactcheck.forms.ChartMap` from the
    section's own base coordinates to ``cc.chart``.  A section of the
    projection follows one rule on both chart flavors: exactly one chart
    variable of weight 1, its unit variable, has a nonzero constant image c,
    and every other chart variable x maps to ``c^(w_x) * v`` for its own
    source coordinate v, the v's covering the source's base variables.  On a
    global chart (all weights 1) that is an affine section of the
    projectivization; on a fibered chart (base weight 0, fiber weight 1) the
    unit variable is the fiber and the base variables map to coordinates.  A
    map to another chart, or one that breaks the rule, raises ``ValueError``
    naming its label.

    Each section's unit variable and coordinates are read once, by that rule,
    and every overlap is read off them.  Chart j reads its coordinate ``v`` of
    ``x`` back as ``x / unit_j^(w_x)``, which undoes its own section, so the
    transition ``pi_j o sigma_i`` of the pair (i, j) is ``v -> sigma_i(x) /
    sigma_i(unit_j)^(w_x)``.  The gauge ``g_ij`` with ``sigma_i = R_(g_ij)
    sigma_j`` is ``sigma_i(unit_j) / sigma_j(unit_j)``: the image of a chart
    variable is a nonzero monomial, so ``g_ij`` is a unit ``c * u^e`` of the
    Laurent ring, nowhere zero on the overlap.  Verifies, exactly: each
    section is a right inverse of the projection; the (C.2) checks of
    :func:`cstructure_from_charts` on the pulled-back forms, and, as their
    cross-check against the section rule, ``f_ij = g_ij^delta``; then the
    (C.1) check of the one :class:`CStructureData` it builds.
    """
    labels, sigmas = list(sections), list(sections.values())
    read = [_section_coordinates(cc, sigma) for sigma in sigmas]
    for label, found in zip(labels, read):
        if found is None:
            raise ValueError(f"{label} is not a section of the projection")
    gammas = [sigma.pull(cc.theta) for sigma in sigmas]
    transition_maps: Dict[Tuple[int, int], Dict[str, MultiPoly]] = {}
    gauges: Dict[Tuple[int, int], MultiPoly] = {}
    for i, sigma_i in enumerate(sigmas):
        for j, (unit_j, coords_j) in enumerate(read):
            if i == j:
                continue
            unit = sigma_i.images[unit_j]
            transition_maps[(i, j)] = {v: sigma_i.images[x] / unit ** cc.weights[x] for x, v in coords_j.items()}
            gauges[(i, j)] = unit / sigmas[j].images[unit_j].constant_value()
    maps, factors = _compatibility_factors(labels, gammas, transition_maps)
    for (i, j), g in gauges.items():
        if factors[(i, j)] != g ** cc.delta:
            raise ValueError(f"(C.2) fails for pair ({labels[i]}, {labels[j]})")
    return CStructureData(labels, gammas, maps, factors, gauges)


def canonical_cocycle_check(cs: CStructureData, n: int) -> List[CheckResult]:
    """Canonical-bundle compatibility: on every overlap,
    ``c_i = f_ij^(n+1) * (c_j o transition) * det(Jacobian of transition)``
    where ``c_k`` is the coefficient of the top ``cs.tops[k] = gamma_k ^ (d gamma_k)^n``.

    The right side is ``f_ij^(n+1)`` times the coefficient of the pullback of
    chart j's top form along the transition: pulling back ``c_j dv_0 ^ ... ^
    dv_2n`` gives ``(c_j o transition) * dT_0 ^ ... ^ dT_2n``, and the wedge
    products expand the Jacobian determinant.  The charts fix n: any other
    ``n`` names no top form, and raises ``ValueError``.
    """
    if cs.tops and cs.tops[0].degree != 2 * n + 1:
        raise ValueError(f"{cs.charts[0]}: gamma ^ (d gamma)^{n} is no top form on {cs.tops[0].chart!r}")
    results: List[CheckResult] = []
    for (i, j), trans in cs.transition_maps.items():
        chart = cs.tops[i].chart
        full = tuple(range(chart.dim))
        lhs = cs.tops[i].terms.get(full, chart.coeff_zero())
        pulled = trans.pull(cs.tops[j]).terms.get(full, chart.coeff_zero())
        rhs = cs.factors[(i, j)] ** (n + 1) * pulled
        ok = lhs == rhs
        results.append(
            check(f"cocycle:{cs.charts[i]}->{cs.charts[j]}", ok, "" if ok else f"lhs {lhs} != rhs {rhs}")
        )
    return results


# -- quotient by the sign action ------------------------------------------------------


def quotient_checks(n: int, monomials: Sequence[Coeff]) -> List[CheckResult]:
    """The degree-2 chart descends to a degree-1 bundle under the sign action.

    * theta is invariant under ``z -> -z`` (an even form);
    * a seeded monomial descends iff its total degree is even, and an even
      function of degree 2m scales as ``(t^2)^m``, i.e. has degree m for the
      action downstream;
    * the space of even functions of degree 2m upstairs has exactly the
      dimension of the degree-m section space downstairs (binomial count).

    ``descended-form-degree-1`` restates the guard of :class:`ContactChart`,
    which has already proved theta homogeneous of degree 2 by the same
    :func:`form_scaling_degrees` set, so it cannot fail on ``hopf_chart(n)``;
    it stays only for the report bytes.
    """
    cc = hopf_chart(n)
    chart = cc.chart
    results: List[CheckResult] = []
    flip = {name: chart.coeff_var(name).scale(-1) for name in chart.all_vars}
    flipped = ChartMap(chart, chart, flip).pull(cc.theta)
    even = flipped == cc.theta
    results.append(check(f"hopf(n={n}):theta-sign-invariance", even, "" if even else flipped - cc.theta))
    # The scaling weight of theta is 2 = 2 * 1: with the downstairs parameter
    # equal to the square of the upstairs one, the descended form has exact
    # degree 1 (the weighted identity for the quotient bundle).
    degrees = form_scaling_degrees(cc, cc.theta)
    results.append(
        check(
            f"hopf(n={n}):descended-form-degree-1",
            degrees == {2},
            f"scaling components {sorted(degrees)}",
        )
    )
    for idx, mono in enumerate(monomials):
        degree = mono.weighted_degree(cc.weights)
        if degree is None:
            raise ValueError("quotient suite expects monomial samples")
        flipped_f = mono.substitute(flip)
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
    for m in range(4):  # the section degrees m = 0..3
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


def immersion_rank(
    cc: ContactChart,
    fs: Sequence[HomogeneousFunction],
    points: Sequence[Mapping[str, GaussianRational]],
) -> List[dict]:
    """One row per sample point: the exact rank of the associated map's
    Jacobian there, cross-checked against the dimension of the
    Hamiltonian-field span.

    The two ranks agree point by point: the span of the ``X'_{f_j}`` at a
    point is the full tangent space (rank ``cc.dim``) exactly when the
    differential of ``F = (f_0, ..., f_N)`` is injective there.  When the
    rank is full, ``F`` itself cannot vanish at the point, which the rows
    record.
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
    return rows


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
    of the hyperplane-class bundle.
    """
    if n_proj < 1:
        raise ValueError("projective dimension must be >= 1 (the punctured line has extra functions)")
    if m < 0:
        raise ValueError("degree must be non-negative")
    return comb(n_proj + m, n_proj)


def monomial_basis(n_proj: int, m: int) -> List[MultiPoly]:
    """All degree-m monomials in z0..zN, graded-lex order (the section basis).

    The exponent vectors come in descending lexicographic order: a sorted
    multiset of m variable indices counts into one vector.
    """
    names = tuple(f"z{i}" for i in range(n_proj + 1))
    return [
        MultiPoly(names, {tuple(map(chosen.count, range(n_proj + 1))): ONE})
        for chosen in combinations_with_replacement(range(n_proj + 1), m)
    ]


def cstructure_from_charts(
    labels: Sequence[str],
    gammas: Sequence[PolyForm],
    transition_maps: Mapping[Tuple[int, int], Mapping[str, MultiPoly]],
) -> CStructureData:
    """Assemble c-structure data, one chart map per transition, from raw chart forms and images.

    The compatibility factors f_ij are extracted from the proportionality
    ``gamma_i = f_ij * (transition)^* gamma_j``, the pullback taken by
    :meth:`~contactcheck.forms.ChartMap.pull`, and their existence is the
    (C.2) check.  A factor must be nowhere zero on the overlap, so (C.2) asks
    for a unit ``c * u^e`` of the Laurent ring: a proportionality by any other
    Laurent polynomial fails it.  The pairs are checked before the record makes
    the (C.1) check, so a form failing both reports (C.2).  Each label names
    one form, each transition key two charts, and each transition gives an
    image of every variable of the chart of ``gamma_j``, and of nothing else,
    spelled over the chart of ``gamma_i``; a transition that breaks this is
    rejected by its pair of labels.  A label given to two forms is rejected
    by name, and a chart with a fiber variable by its label, naming the
    form's fiber dependence if it has one.
    """
    maps, factors = _compatibility_factors(labels, gammas, transition_maps)
    return CStructureData(list(labels), list(gammas), maps, factors)


def _compatibility_factors(labels, gammas, transition_maps):
    """The chart map and (C.2) factor of every pair, after the checks of :func:`cstructure_from_charts`."""
    if len(labels) != len(gammas):
        raise ValueError(f"{len(gammas)} chart forms need as many labels, not {len(labels)}")
    for i, j in transition_maps:
        if not (0 <= i < len(gammas) and 0 <= j < len(gammas)):
            raise ValueError(f"transition ({i}, {j}) names a chart outside 0..{len(gammas) - 1}")
    for label, gamma in zip(labels, gammas):
        if gamma.chart.fiber_var is not None:
            try:
                for coeff in gamma.terms.values():
                    gamma.chart.base_part(coeff)
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None
            raise ValueError(f"{label}: a c-structure chart form lives on the base, not on {gamma.chart!r}")
    maps: Dict[Tuple[int, int], ChartMap] = {}
    factors: Dict[Tuple[int, int], MultiPoly] = {}
    for (i, j), images in transition_maps.items():
        try:
            maps[(i, j)] = ChartMap(gammas[i].chart, gammas[j].chart, images)
        except ValueError as exc:
            raise ValueError(f"transition ({labels[i]}, {labels[j]}): {exc}") from None
        factor = _proportionality_factor(gammas[i], maps[(i, j)].pull(gammas[j]))
        if factor is None:
            raise ValueError(f"(C.2) fails for pair ({labels[i]}, {labels[j]})")
        factors[(i, j)] = factor
    return maps, factors
