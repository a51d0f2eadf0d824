"""Exact linear algebra over Q(i) and over Laurent polynomial rings.

Elimination works for :class:`~contactcheck.scalars.GaussianRational` and
:class:`~contactcheck.laurent.LaurentPoly` alike: elements must support
``+``, ``-``, ``*``, ``/``, unary ``-`` and ``is_zero()``.  Matrices are
plain lists of lists.  Sparse vectors are ``{index: value}`` dicts that
store no zeros, the one vector format of :mod:`contactcheck.lie` and
:mod:`contactcheck.orbits`; :func:`add_into`, :func:`combine` and
:func:`total` are their arithmetic.  The Lie layer hands over blocks cut
down by its sparse structure: the r x r Cartan block of the Killing form,
and the columns that :func:`column_kernel` eliminates over just the
coordinates they touch (the table row of ``e_rho``, the bracket and
centralizer spans of the G00 check, the ``e_rho`` pairing of the theta_G
check).  Its vectors are never written out in ``dim g`` coordinates; the
contact layer's Laurent systems are as large as a chart's coordinate count.
No pivoting heuristics beyond "first nonzero" are needed over a field.
:func:`sparse_basis` reduces families of sparse vectors, such as the up to
``|G_1|^2`` brackets of the G00 check or an orbit's tangent vectors, to a
basis, and :func:`same_span` compares two families through it.
:func:`row_echelon` works in place on a copy of its input and touches
only the pivot row's support: zeros in the pivot row are not divided, and
each row update walks only the pivot row's nonzero columns.  ``0 / p = 0``
and ``a - f * 0 = a`` are exact, so the echelon form is the one full-row
elimination gives, entry for entry.  LaurentPoly is a
ring, not a field: it divides only by units ``c * fiber^k``.  Where an entry
type has ``is_unit()``, a non-unit first pivot gives way to the first unit
further down its column; a column with no unit raises ``ZeroDivisionError``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, TypeVar

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
        if hasattr(m[pivot][c], "is_unit") and not m[pivot][c].is_unit():
            pivot = next((i for i in range(pivot + 1, len(m)) if m[i][c].is_unit()), pivot)
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        inv = row[c]
        # The pivot row is already zero left of c.
        support = [k for k in range(c, ncols) if not row[k].is_zero()]
        for k in support:
            row[k] = row[k] / inv
        for i, other in enumerate(m):
            if i != r and not other[c].is_zero():
                factor = other[c]
                for k in support:
                    other[k] = other[k] - factor * row[k]
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


def mat_vec(a: Sequence[Sequence[T]], x: Sequence[T], zero: T = ZERO) -> List[T]:
    out = []
    for row in a:
        acc = zero
        for v, xi in zip(row, x):
            if not v.is_zero():
                acc = acc + v * xi
        out.append(acc)
    return out


def total(values: Iterable[T]) -> T:
    """The sum of ``values`` (``ZERO`` for none), with no addition seeded by zero."""
    out: Optional[T] = None
    for v in values:
        out = v if out is None else out + v
    return ZERO if out is None else out


def add_into(out: Dict[int, T], f: T, vec: Mapping[int, T]) -> None:
    """``out += f * vec`` on sparse vectors, dropping entries that cancel to zero."""
    for k, c in vec.items():
        acc = out[k] + f * c if k in out else f * c
        if acc.is_zero():
            out.pop(k, None)
        else:
            out[k] = acc


def combine(coeffs: Mapping[int, T], vectors: Sequence[Mapping[int, T]]) -> Dict[int, T]:
    """``sum_m coeffs[m] * vectors[m]``, a sparse combination of sparse vectors."""
    out: Dict[int, T] = {}
    for m, c in coeffs.items():
        add_into(out, c, vectors[m])
    return out


def sparse_basis(vectors: Iterable[Mapping[int, T]], one: T = ONE) -> List[Dict[int, T]]:
    """A basis of the span of sparse vectors ``{index: value}`` (no stored zeros).

    The basis is in semi-echelon form: each row is 1 at its leading (smallest)
    index, and no two rows lead at the same index.  A vector is reduced by the
    row leading where it leads until it vanishes or leads at a new index,
    where it is kept.  Each step walks only the supports of the two rows.
    """
    rows: Dict[int, Dict[int, T]] = {}
    for vector in vectors:
        v = dict(vector)
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                inv = one / v[lead]
                rows[lead] = {k: c * inv for k, c in v.items()}
                break
            add_into(v, -v[lead], row)
    return [rows[k] for k in sorted(rows)]


def same_span(a: Sequence[Mapping[int, T]], b: Sequence[Mapping[int, T]]) -> bool:
    """Whether two families of sparse vectors span the same subspace."""
    rank_a = len(sparse_basis(a))
    return rank_a == len(sparse_basis(b)) == len(sparse_basis([*a, *b]))


def column_kernel(columns: Sequence[Mapping[int, T]]) -> List[Dict[int, T]]:
    """A basis of ``{c : sum_j c_j columns[j] = 0}``, as sparse coefficient vectors.

    Each zero column gives its unit vector; the nonzero columns are eliminated
    over just the coordinates they touch.
    """
    live = [j for j, col in enumerate(columns) if col]
    basis: List[Dict[int, T]] = [{j: ONE} for j, col in enumerate(columns) if not col]
    coords = sorted({k for j in live for k in columns[j]})
    matrix = [[columns[j].get(k, ZERO) for j in live] for k in coords]
    for vec in nullspace(matrix):
        basis.append({live[m]: c for m, c in enumerate(vec) if not c.is_zero()})
    return basis


def determinant(matrix: Sequence[Sequence[T]], one: T = ONE) -> T:
    """Determinant by Bareiss fraction-free elimination (Math. Comp. 22, 1968).

    Each step sets ``m[i][j] = (m[i][j] * p - m[i][c] * m[c][j]) / prev`` for
    pivot ``p`` and previous pivot ``prev``, swapping rows on a zero pivot.
    Every division is exact in an integral domain, so Q(i) and the Laurent
    ring of :mod:`contactcheck.ratfunc` share it.
    """
    m = _clone(matrix)
    n = len(m)
    negate = False
    prev = one
    for c in range(n):
        pivot = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pivot is None:
            return one - one  # zero of the ring
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            negate = not negate
        p = m[c][c]
        for i in range(c + 1, n):
            row, lead = m[i], m[i][c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - lead * m[c][j]) / prev
        prev = p
    return -prev if negate else prev
