"""Exact Gaussian elimination over any field-like element type.

Works for :class:`~contactcheck.scalars.GaussianRational`,
:class:`~contactcheck.ratfunc.RationalFunction` and
:class:`~contactcheck.laurent.LaurentPoly` alike: elements must support
``+``, ``-``, ``*``, ``/``, unary ``-`` and ``is_zero()``.  Matrices are
plain lists of lists; everything is small (dimension <= ~25), so no pivoting
heuristics beyond "first nonzero" are needed.  LaurentPoly is a ring, not a
field: it divides only by units ``c * fiber^k``, so every pivot met must be
one, or the elimination raises ``ZeroDivisionError``.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

from .scalars import ONE, ZERO

T = TypeVar("T")

Matrix = List[List[T]]


def _clone(rows: Sequence[Sequence[T]]) -> Matrix:
    return [list(row) for row in rows]


def row_echelon(rows: Sequence[Sequence[T]]) -> tuple[Matrix, List[int]]:
    """Reduced row-echelon form and the list of pivot columns."""
    m = _clone(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence[T]]) -> int:
    if not rows:
        return 0
    _, pivots = row_echelon(rows)
    return len(pivots)


def solve(matrix: Sequence[Sequence[T]], rhs: Sequence[T]) -> List[T]:
    """Solve the square system ``matrix @ x = rhs``; raises on singularity."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    echelon, pivots = row_echelon(aug)
    if pivots and pivots[-1] == n:
        raise ValueError("inconsistent linear system")
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [echelon[i][n] for i in range(n)]


def invert(matrix: Sequence[Sequence[T]], one: T = ONE, zero: T = ZERO) -> Matrix:
    """Inverse of a square matrix; raises on singularity."""
    n = len(matrix)
    aug = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    echelon, pivots = row_echelon(aug)
    if pivots[: n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in echelon[:n]]


def nullspace(rows: Sequence[Sequence[T]], one: T = ONE, zero: T = ZERO) -> List[List[T]]:
    """A basis of the right kernel ``{x : rows @ x = 0}``."""
    if not rows:
        return []
    ncols = len(rows[0])
    echelon, pivots = row_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: List[List[T]] = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = -echelon[r][f]
        basis.append(vec)
    return basis


def matmul(a: Sequence[Sequence[T]], b: Sequence[Sequence[T]], zero: T = ZERO) -> Matrix:
    out: Matrix = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = zero
            for k, v in enumerate(row):
                if not v.is_zero():
                    acc = acc + v * b[k][j]
            new.append(acc)
        out.append(new)
    return out


def mat_vec(a: Sequence[Sequence[T]], x: Sequence[T], zero: T = ZERO) -> List[T]:
    out = []
    for row in a:
        acc = zero
        for v, xi in zip(row, x):
            if not v.is_zero():
                acc = acc + v * xi
        out.append(acc)
    return out


def identity(n: int, one: T = ONE, zero: T = ZERO) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def same_span(a: Sequence[Sequence[T]], b: Sequence[Sequence[T]]) -> bool:
    """Whether two row families span the same subspace."""
    ra, rb = rank(a), rank(b)
    if ra != rb:
        return False
    return rank(list(a) + list(b)) == ra


def intersect_spans(
    a: Sequence[Sequence[T]], b: Sequence[Sequence[T]], zero: T = ZERO
) -> List[List[T]]:
    """A basis of span(a) intersect span(b), rows as vectors."""
    if not a or not b:
        return []
    dim = len(a[0])
    # Columns: coefficients on a-vectors then b-vectors; kernel rows give
    # combinations with sum_i x_i a_i = sum_j y_j b_j.
    rows = [[a[i][d] for i in range(len(a))] + [-b[j][d] for j in range(len(b))] for d in range(dim)]
    kernel = nullspace(rows, zero=zero)
    candidates: List[List[T]] = []
    for combo in kernel:
        vec = [zero] * dim
        for i, coeff in enumerate(combo[: len(a)]):
            if not coeff.is_zero():
                vec = [v + coeff * ai for v, ai in zip(vec, a[i])]
        if any(not v.is_zero() for v in vec):
            candidates.append(vec)
    if not candidates:
        return []
    echelon, pivots = row_echelon(candidates)
    return [echelon[r] for r in range(len(pivots))]


def determinant(matrix: Sequence[Sequence[T]], one: T = ONE) -> T:
    """Determinant by fraction-free-ish elimination (exact field arithmetic)."""
    m = _clone(matrix)
    n = len(m)
    det = one
    sign_flip = False
    for c in range(n):
        pivot = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pivot is None:
            return one - one  # zero of the field
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign_flip = not sign_flip
        det = det * m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                factor = m[i][c] / inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return -det if sign_flip else det
