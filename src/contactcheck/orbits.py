"""Unipotent orbits through the highest-root vector, moment maps, rank checks.

Group elements are generated exclusively by exponentials ``exp(t ad e_a)`` at
rational parameters: ``ad e_a`` is nilpotent, so the series terminates and
the images of the basis vectors stay exactly rational.  Torus directions are
not exponentiated (that needs ``e^z``); the scaling action is covered instead
by rational rescalings of orbit points together with the infinitesimal
character value ``B([H_rho, e_rho], -e_{-rho}) = 2``, which pins the weight
of the fiber action on the orbit cone.  Orbit membership is always certified by the
generating word stored with each point; it is never decided for arbitrary
vectors.

Maps act through the sparse bracket table and the sparse Gram rows of
:class:`~contactcheck.lie.KillingData`: ``exp_ad`` applies the table row of
``e_root`` term by term, the tangent space ``[g, pt]`` is read from each
table row, the moment pairing ``B(pt, e_i)`` from the Gram rows pt selects,
and kappa solves the Gram system block by block (the Cartan block, then one
division per root pair).  The theta_G kernel is eliminated from sparse
columns, the ``e_rho`` Gram row read against each table row, and compared
with the sparse centralizer span of
:class:`~contactcheck.lie.GradedDecomposition`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .lie import (
    GradedDecomposition,
    KillingData,
    SparseVec,
    StructureConstants,
    Vector,
    _add_into,
    _dense,
    _sum,
    _terms,
)
from .report import SKIPPED, CheckResult, check
from .rootsystem import Root
from .scalars import ONE, ZERO, GaussianRational

Word = Sequence[Tuple[Root, Fraction]]


class AlgebraAutomorphism:
    """A bracket-preserving linear map, stored as the images of the basis vectors.

    ``columns[j]`` is the image of ``e_j`` in basis coordinates, i.e. column
    ``j`` of the map's matrix in the Lie basis.
    """

    __slots__ = ("sc", "columns")

    def __init__(self, sc: StructureConstants, columns: List[Vector]):
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraAutomorphism is immutable")

    def apply(self, vec: Sequence[GaussianRational]) -> Vector:
        out: SparseVec = {}
        for j, xj in _terms(vec):
            _add_into(out, xj, _terms(self.columns[j]))
        return _dense(out, self.sc.dim)

    def compose(self, other: "AlgebraAutomorphism") -> "AlgebraAutomorphism":
        return AlgebraAutomorphism(self.sc, [self.apply(col) for col in other.columns])

    def preserves_brackets(self) -> bool:
        return self.bracket_defect() is None

    def bracket_defect(self) -> Optional[Tuple[int, int]]:
        """The first basis pair ``(i, j)``, ``i < j``, with ``M[e_i, e_j] != [M e_i, M e_j]``."""
        sc = self.sc
        terms = [_terms(col) for col in self.columns]
        for i in range(sc.dim):
            for j in range(i + 1, sc.dim):
                # The image of [e_i, e_j], zero entries dropped like the bracket's.
                lhs: SparseVec = {}
                for k, c in sc.bracket_basis(i, j).items():
                    _add_into(lhs, c, terms[k])
                if lhs != sc._bracket_terms(terms[i], terms[j]):
                    return i, j
        return None

    def preserves_form(self, kd: KillingData) -> bool:
        return self.form_defect(kd) is None

    def form_defect(self, kd: KillingData) -> Optional[Tuple[int, int]]:
        """The first basis pair ``(i, j)``, ``i <= j``, with ``B(M e_i, M e_j) != B(e_i, e_j)``."""
        cols = self.columns
        for i in range(self.sc.dim):
            xs = _terms(cols[i])
            for j in range(i, self.sc.dim):
                if kd._form_terms(xs, cols[j]) != kd.gram[i][j]:
                    return i, j
        return None


class OrbitPoint:
    """A point of the minimal nilpotent cone with its generating word."""

    __slots__ = ("vector", "word")

    def __init__(self, vector: Vector, word: Word):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "word", tuple(word))

    def __setattr__(self, name, value):
        raise AttributeError("OrbitPoint is immutable")


class MomentVector:
    """Pairings B(point, basis element) for one orbit point."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Vector):
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):
        raise AttributeError("MomentVector is immutable")


def exp_ad(sc: StructureConstants, root: Root, t: Fraction) -> AlgebraAutomorphism:
    """``exp(t ad e_root)``, column by column: ``sum_k t^k/k! (ad e_root)^k e_j``.

    ``ad e_root`` is nilpotent, so each series terminates and every column is
    exact; each power applies ``e_root``'s table row to the previous term.
    """
    rs = sc.basis.rs
    if not rs.is_root(tuple(root)):
        raise ValueError(f"{root} is not a root; only nilpotent directions exponentiate")
    n = sc.dim
    e = sc.basis.root_index(tuple(root))
    scalar = GaussianRational(t)
    columns: List[Vector] = []
    for j in range(n):
        column: SparseVec = {j: ONE}
        term: SparseVec = {j: ONE}
        factor = ONE
        for k in range(1, n + 1):
            term = sc._ad_terms(e, term.items())
            if not term:
                break
            factor = factor * scalar / GaussianRational(k)
            _add_into(column, factor, term.items())
        else:
            raise ArithmeticError("ad e_root failed to nilpotate; broken table")
        columns.append(_dense(column, n))
    return AlgebraAutomorphism(sc, columns)


def orbit_sample(sc: StructureConstants, kd: KillingData, word: Word) -> OrbitPoint:
    """Apply the unipotent word to e_rho; checks pt != 0.

    Isotropy ``B(pt, pt) = 0`` is a property to verify, not a precondition:
    the ``adjoint:isotropic`` checks report it.
    """
    rs = sc.basis.rs
    vec = sc.unit(sc.basis.root_index(rs.highest))
    for root, t in word:
        vec = exp_ad(sc, root, Fraction(t)).apply(vec)
    if all(c.is_zero() for c in vec):
        raise ArithmeticError("orbit point collapsed to zero")
    return OrbitPoint(vec, word)


def rescale_point(pt: OrbitPoint, factor: GaussianRational) -> OrbitPoint:
    """The fiber action on the cone: scalar rescaling (kept separate from words)."""
    if factor.is_zero():
        raise ValueError("rescaling by zero leaves the punctured cone")
    return OrbitPoint([factor * c for c in pt.vector], pt.word)


def theta_G_checks(sc: StructureConstants, kd: KillingData, gd: GradedDecomposition) -> List[CheckResult]:
    """Exact checks of the canonical one-form data on the group model.

    * the kernel of ``(X, Y) -> B(e_rho, [X, Y])`` is the centralizer of
      e_rho (the isotropy of the cone point);
    * ``B(e_rho, H_rho) = 0``: the form kills the vertical direction;
    * ``B([H_rho, e_rho], -e_{-rho}) = 2``: the infinitesimal character of
      the fiber action (weight of the scaling on the cone).
    """
    e_rho = sc.unit(sc.basis.root_index(sc.basis.rs.highest))
    results: List[CheckResult] = []
    kernel = linalg.column_kernel(_rho_pairing_columns(sc, kd))
    ok = linalg.same_span(kernel, gd.spans["L0"])
    results.append(
        check(
            "theta_G:kernel-is-centralizer",
            ok,
            f"kernel dim {len(kernel)}, centralizer dim {len(gd.spans['L0'])}",
        )
    )
    vertical = kd.form(e_rho, kd.hrho)
    results.append(check("theta_G:vertical-annihilation", vertical.is_zero(), vertical))
    from .lie import chi_differential

    chi = chi_differential(kd, sc)
    results.append(check("theta_G:character-differential", chi == GaussianRational(2), chi))
    return results


def _rho_pairing_columns(sc: StructureConstants, kd: KillingData) -> List[SparseVec]:
    """Column j holds the nonzero ``B(e_rho, [e_j, e_i])`` over i.

    It is the e_rho Gram row read against table row j, so the column kernel is
    ``{X : B(e_rho, [X, Y]) = 0 for all Y}``.
    """
    g_rho = kd.gram_rows[sc.basis.root_index(sc.basis.rs.highest)]
    columns: List[SparseVec] = []
    for row in sc.rows:
        column: SparseVec = {}
        for i, entry in row.items():
            value = _sum(g_rho[k] * c for k, c in entry.items() if k in g_rho)
            if not value.is_zero():
                column[i] = value
        columns.append(column)
    return columns


def moment_map(sc: StructureConstants, kd: KillingData, pt: OrbitPoint) -> MomentVector:
    """Coefficients ``B(pt, X_i)`` over the basis: the moment pairing at pt.

    ``B(pt, e_i) = sum_j pt_j B(e_j, e_i)``, summed over pt's terms and the
    Gram rows they select.
    """
    out: SparseVec = {}
    for j, pj in _terms(pt.vector):
        _add_into(out, pj, kd.gram_rows[j].items())
    return MomentVector(_dense(out, sc.dim))


def kappa(sc: StructureConstants, kd: KillingData, mv: MomentVector) -> Vector:
    """Invert the musical isomorphism: solve ``Gram . x = coefficients``.

    The Gram matrix :func:`~contactcheck.lie.killing` builds pairs the Cartan
    block only with itself and ``e_a`` only with ``e_{-a}``, so the system
    splits: an r x r solve on the Cartan block, then ``x_{-a} = c_a / B(e_a,
    e_{-a})`` and ``x_a = c_{-a} / B(e_a, e_{-a})`` for each positive root a.
    """
    basis = sc.basis
    rank = basis.rank
    gram = kd.gram
    coeffs = mv.coefficients
    x = linalg.solve([row[:rank] for row in gram[:rank]], coeffs[:rank])
    x += [ZERO] * (sc.dim - rank)
    rs = basis.rs
    for a in rs.positive_roots():
        i = basis.root_index(a)
        j = basis.root_index(rs.negative(a))
        pairing = gram[i][j]
        if pairing.is_zero():
            raise ValueError("singular matrix")
        inv = pairing.inverse()
        x[j] = coeffs[i] * inv
        x[i] = coeffs[j] * inv
    return x


def kappa_round_trip(sc: StructureConstants, kd: KillingData, pt: OrbitPoint) -> bool:
    return kappa(sc, kd, moment_map(sc, kd, pt)) == list(pt.vector)


def tangent_rank(sc: StructureConstants, pt: OrbitPoint) -> int:
    """Dimension of the orbit's tangent space ``[g, pt]`` at pt.

    ``[e_i, pt] = sum_j pt_j [e_i, e_j]`` is read from table row i.
    """
    terms = _terms(pt.vector)
    return len(linalg.sparse_basis(sc._ad_terms(i, terms) for i in range(sc.dim)))


def embedding_checks(
    sc: StructureConstants,
    kd: KillingData,
    gd: GradedDecomposition,
    points: Sequence[OrbitPoint],
    ranks: Sequence[int],
) -> List[CheckResult]:
    """Tangent-rank and projective-separation checks at sampled orbit points.

    The tangent space of the orbit at pt is ``[g, pt]``; its dimension must be
    ``dim G_1 + 2`` everywhere (the cone dimension); ``ranks`` holds the
    points' :func:`tangent_rank` values.  Coordinate vectors of distinct
    sample points must be pairwise non-proportional (injectivity of the
    projectivized linear embedding on the sample); coincident points are
    reported as skipped comparisons, not failures.
    """
    expected = len(gd.pieces[1]) + 2
    results: List[CheckResult] = []
    for idx, got in enumerate(ranks):
        results.append(
            check(f"embedding:tangent-rank-{idx}", got == expected, f"rank {got} != {expected}")
        )
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            a, b = points[i].vector, points[j].vector
            if _proportional(a, b):
                if a == b:
                    results.append(CheckResult(f"embedding:separation-{i}-{j}", SKIPPED, "coincident sample"))
                else:
                    results.append(CheckResult(f"embedding:separation-{i}-{j}", SKIPPED, "proportional sample"))
            else:
                results.append(check(f"embedding:separation-{i}-{j}", True))
    return results


def _proportional(a: Sequence[GaussianRational], b: Sequence[GaussianRational]) -> bool:
    ratio: Optional[GaussianRational] = None
    for x, y in zip(a, b):
        if x.is_zero() and y.is_zero():
            continue
        if x.is_zero() or y.is_zero():
            return False
        candidate = x / y
        if ratio is None:
            ratio = candidate
        elif ratio != candidate:
            return False
    return True
