"""Unipotent orbits through the highest-root vector, moment maps, rank checks.

Group elements are generated exclusively by exponentials ``exp(t ad e_a)`` at
rational parameters: ``ad e_a`` is nilpotent, so the series terminates and
the images of the basis vectors stay exactly rational.  Torus directions are
not exponentiated (that needs ``e^z``), and no check moves a point by the
scaling action: the weight of the fiber action on the orbit cone is pinned
by the infinitesimal character value ``B([H_rho, e_rho], -e_{-rho}) = 2``,
the ``theta_G:character-differential`` check.  Orbit membership is always
certified by the generating word stored with each point; it is never
decided for arbitrary vectors.

Orbit points, automorphism columns and moment pairings are sparse
``{index: value}`` vectors, like every vector of :mod:`contactcheck.lie`.
Maps act through the sparse bracket table and the sparse Gram rows of
:class:`~contactcheck.lie.KillingData`.  One series moves one vector:
``exp(t ad e_root) v = sum_k t^k/k! (ad e_root)^k v``, each power one pass
over the table row of ``e_root``.  :func:`orbit_sample` moves its point by
it letter by letter and builds no automorphism; :func:`exp_ad` builds its
columns with it, one per basis vector.  The tangent space ``[g, pt]`` is
read from each table row, the moment pairing ``B(pt, e_i)`` from the Gram
rows pt selects, and kappa solves the Gram system block by block (one
combination of the stored Cartan-block inverse's rows, then one division
per root pair).  The theta_G kernel is eliminated from sparse columns, the
``e_rho`` Gram row read against each table row, and compared with the
sparse centralizer span of :class:`~contactcheck.lie.GradedDecomposition`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from . import linalg
from .lie import GradedDecomposition, KillingData, SparseVec, StructureConstants, chi_differential
from .linalg import add_into, combine, dot
from .report import SKIPPED, CheckResult, check
from .rootsystem import Root
from .scalars import ONE, ZERO, GaussianRational, Immutable, ScalarLike

Word = Sequence[Tuple[Root, ScalarLike]]


class AlgebraAutomorphism(Immutable):
    """A bracket-preserving linear map, stored as the images of the basis vectors.

    ``columns[j]`` is the image of ``e_j``, i.e. column ``j`` of the map's
    matrix in the Lie basis, as a sparse vector.
    """

    __slots__ = ("sc", "columns")

    def __init__(self, sc: StructureConstants, columns: List[SparseVec]):
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "columns", columns)

    def apply(self, vec: SparseVec) -> SparseVec:
        return combine(vec, self.columns)

    def compose(self, other: "AlgebraAutomorphism") -> "AlgebraAutomorphism":
        return AlgebraAutomorphism(self.sc, [self.apply(col) for col in other.columns])

    def preserves_brackets(self) -> bool:
        return self.bracket_defect() is None

    def bracket_defect(self) -> Optional[Tuple[int, int]]:
        """The first basis pair ``(i, j)``, ``i < j``, with ``M[e_i, e_j] != [M e_i, M e_j]``."""
        sc = self.sc
        cols = self.columns
        for i in range(sc.dim):
            for j in range(i + 1, sc.dim):
                if self.apply(sc.bracket_basis(i, j)) != sc.bracket(cols[i], cols[j]):
                    return i, j
        return None

    def preserves_form(self, kd: KillingData) -> bool:
        return self.form_defect(kd) is None

    def form_defect(self, kd: KillingData) -> Optional[Tuple[int, int]]:
        """The first basis pair ``(i, j)``, ``i <= j``, with ``B(M e_i, M e_j) != B(e_i, e_j)``.

        ``B(M e_i, M e_j) = sum_k (M e_i)_k B(e_k, M e_j)``, with each
        ``B(., M e_j)`` the combination of the Gram rows ``M e_j`` selects,
        made once per column.
        """
        cols = self.columns
        by_col = [combine(col, kd.gram) for col in cols]
        for i, col in enumerate(cols):
            row = kd.gram[i]
            for j in range(i, self.sc.dim):
                by_j = by_col[j]
                value = dot((c, by_j[k]) for k, c in col.items() if k in by_j)
                if value != row.get(j, ZERO):
                    return i, j
        return None


class OrbitPoint(Immutable):
    """A point of the minimal nilpotent cone, as a sparse vector, with its generating word."""

    __slots__ = ("vector", "word")

    def __init__(self, vector: SparseVec, word: Word):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "word", tuple(word))


def exp_ad(sc: StructureConstants, root: Root, t: ScalarLike) -> AlgebraAutomorphism:
    """``exp(t ad e_root)``, column by column: ``sum_k t^k/k! (ad e_root)^k e_j``.

    ``ad e_root`` is nilpotent, so each series terminates and every column is
    exact; each column is :func:`_exp_ad_vector` of its basis vector.
    """
    e = _root_direction(sc, root)
    scalar = GaussianRational.coerce(t)
    return AlgebraAutomorphism(sc, [_exp_ad_vector(sc, e, scalar, {j: ONE}) for j in range(sc.dim)])


def _root_direction(sc: StructureConstants, root: Root) -> int:
    """The basis index of ``e_root``; ``ValueError`` unless root is a root."""
    root = tuple(root)
    if not sc.basis.rs.is_root(root):
        raise ValueError(f"{root} is not a root; only nilpotent directions exponentiate")
    return sc.basis.root_index(root)


def _exp_ad_vector(sc: StructureConstants, e: int, t: GaussianRational, vec: SparseVec) -> SparseVec:
    """``exp(t ad x) vec = sum_k t^k/k! (ad x)^k vec`` for x the basis vector ``e``.

    Each power brackets ``x`` with the previous term, one pass over table
    row ``e``; no matrix is built.  The series stops at the first zero term,
    within ``dim`` steps when ``ad x`` is nilpotent.
    """
    out = dict(vec)
    term = vec
    factor = ONE
    x = {e: ONE}
    for k in range(1, sc.dim + 1):
        term = sc.bracket(x, term)
        if not term:
            return out
        factor = factor * t / k
        add_into(out, factor, term)
    raise ArithmeticError("ad e_root failed to nilpotate; broken table")


def orbit_sample(sc: StructureConstants, word: Word) -> OrbitPoint:
    """Apply the unipotent word to e_rho, one vector series per letter; checks pt != 0.

    The point is moved letter by letter by :func:`_exp_ad_vector`; no
    automorphism is built.  Isotropy ``B(pt, pt) = 0`` is a property to
    verify, not a precondition: the ``adjoint:isotropic`` checks report it.

    A letter ``(a, t)`` with ``a(H_rho) >= 0`` fixes e_rho: ``a + rho`` has
    grade ``a(H_rho) + 2 >= 2`` and is not rho, and ``G_2`` is spanned by
    e_rho, so ``a + rho`` is no root and ``[e_a, e_rho] = 0``.  A word of
    only such letters (51 of E6's 72 roots, 33 of F4's 48, 15 of D4's 24)
    therefore returns e_rho itself, the point of the empty word.
    """
    vec: SparseVec = {sc.basis.root_index(sc.basis.rs.highest): ONE}
    for root, t in word:
        vec = _exp_ad_vector(sc, _root_direction(sc, root), GaussianRational.coerce(t), vec)
    if not vec:
        raise ArithmeticError("orbit point collapsed to zero")
    return OrbitPoint(vec, word)


def theta_G_checks(gd: GradedDecomposition) -> List[CheckResult]:
    """Exact checks of the canonical one-form data on the group model.

    * the kernel of ``(X, Y) -> B(e_rho, [X, Y])`` is the centralizer of
      e_rho (the isotropy of the cone point);
    * ``B(e_rho, H_rho) = 0``: the form kills the vertical direction;
    * ``B([H_rho, e_rho], -e_{-rho}) = 2``: the infinitesimal character of
      the fiber action (weight of the scaling on the cone).
    """
    sc, kd = gd.sc, gd.kd
    e_rho = {sc.basis.root_index(sc.basis.rs.highest): ONE}
    results: List[CheckResult] = []
    kernel = linalg.column_kernel(_rho_pairing_columns(kd))
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
    chi = chi_differential(kd)
    results.append(check("theta_G:character-differential", chi == GaussianRational(2), chi))
    return results


def _rho_pairing_columns(kd: KillingData) -> List[SparseVec]:
    """Column j holds the nonzero ``B(e_rho, [e_j, e_i])`` over i.

    It is the e_rho Gram row read against table row j, so the column kernel is
    ``{X : B(e_rho, [X, Y]) = 0 for all Y}``.
    """
    sc = kd.sc
    g_rho = kd.gram[sc.basis.root_index(sc.basis.rs.highest)]
    columns: List[SparseVec] = []
    for row in sc.rows:
        column: SparseVec = {}
        for i, entry in row.items():
            value = dot((g_rho[k], c) for k, c in entry.items() if k in g_rho)
            if value:
                column[i] = value
        columns.append(column)
    return columns


def moment_map(kd: KillingData, pt: OrbitPoint) -> SparseVec:
    """The moment pairing at pt: ``B(pt, e_i)`` over the basis, a sparse vector.

    ``B(pt, e_i) = sum_j pt_j B(e_j, e_i)``, a combination of the Gram rows
    pt selects.
    """
    return combine(pt.vector, kd.gram)


def kappa(kd: KillingData, coeffs: SparseVec) -> SparseVec:
    """Invert the musical isomorphism: solve ``Gram . x = coeffs``.

    The Gram matrix :func:`~contactcheck.lie.killing` builds pairs the Cartan
    block only with itself and ``e_a`` only with ``e_{-a}``, so the system
    splits: on the Cartan block, the combination of the stored inverse's
    (symmetric) rows that the Cartan coordinates of ``coeffs`` select, then
    ``x_{-a} = c_a / B(e_a, e_{-a})`` and ``x_a = c_{-a} / B(e_a, e_{-a})``
    for each positive root a.
    """
    basis = kd.sc.basis
    rank = basis.rank
    gram = kd.gram
    x = combine({i: c for i, c in coeffs.items() if i < rank}, kd.cartan_inverse)
    rs = basis.rs
    for a in rs.positive_roots():
        i = basis.root_index(a)
        j = basis.root_index(rs.negative(a))
        pairing = gram[i].get(j)
        if pairing is None:
            raise ValueError("singular matrix")
        inv = pairing.inverse()
        if i in coeffs:
            x[j] = coeffs[i] * inv
        if j in coeffs:
            x[i] = coeffs[j] * inv
    return x


def kappa_round_trip(kd: KillingData, pt: OrbitPoint) -> bool:
    return kappa(kd, moment_map(kd, pt)) == pt.vector


def tangent_rank(sc: StructureConstants, pt: OrbitPoint) -> int:
    """Dimension of the orbit's tangent space ``[g, pt]`` at pt.

    ``[e_i, pt] = sum_j pt_j [e_i, e_j]`` is read from table row i.
    """
    return linalg.rank(sc.bracket({i: ONE}, pt.vector) for i in range(sc.dim))


def embedding_checks(
    gd: GradedDecomposition, points: Sequence[OrbitPoint], ranks: Sequence[int]
) -> List[CheckResult]:
    """Tangent-rank and projective-separation checks at sampled orbit points.

    The tangent space of the orbit at pt is ``[g, pt]``; its dimension must be
    ``dim G_1 + 2`` everywhere (the cone dimension); ``ranks`` holds the
    points' :func:`tangent_rank` values.  Coordinate vectors of distinct
    sample points must be pairwise non-proportional (injectivity of the
    projectivized linear embedding on the sample); coincident points are
    reported as skipped comparisons, not failures.  Coincidences come from
    words whose letters all have ``a(H_rho) >= 0``: each fixes e_rho (see
    :func:`orbit_sample`), so the point is that of the empty word.  E6's
    ``adjoint --samples 3`` at seed 2024 draws one, the word on the roots
    ``(0,0,-1,-1,-1,-1)`` and ``(1,1,2,2,2,1)``, and skips separation 0-2.
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


def _proportional(a: SparseVec, b: SparseVec) -> bool:
    """Whether a and b have one support and one ratio ``a_k / b_k`` on it."""
    return a.keys() == b.keys() and len({x / b[k] for k, x in a.items()}) <= 1
