"""Exact linear algebra over Q(i) and over Laurent polynomial rings.

One matrix format: a list of sparse rows (or columns), each an ``{index:
value}`` dict that stores no zeros, the one vector format of
:mod:`contactcheck.lie`, :mod:`contactcheck.orbits` and the contact solver.
:func:`add_into`, :func:`combine` and :func:`total` are its arithmetic.
Entries must support ``+``, ``-``, ``*``, ``/``, unary ``-`` and
``is_zero()``.

One elimination loop, :func:`echelon`: it walks the indices the vectors
touch in increasing order, keeps at each one the first vector with a unit
there, scaled to 1, and reduces every vector still waiting by it, so each
kept row is 1 at its pivot and 0 at every earlier pivot.  Each step walks only the
supports of the two rows.  Everything else is a few lines on top of it:
:func:`sparse_basis` and :func:`rank` read the kept rows, :func:`same_span`
compares ranks, and :func:`column_kernel` and :func:`inverse`
back-substitute the kept rows to the reduced form, over just the coordinates
their inputs touch.

Ring rule.  The pivot rule ``is_unit`` says which entries may be divided
by.  The loop pivots only on units: a non-unit entry gives way to the first
unit further down its column, and a column with no unit raises
``ZeroDivisionError``.  Without a rule every nonzero entry is a unit, the
field case, so the pivot is always the first nonzero entry.  The dtheta
solve of :mod:`contactcheck.contact` passes the chart ring's rule
:meth:`~contactcheck.forms.ChartSpace.is_unit`, true for ``c * fiber^k``.

:func:`determinant` is the one ring determinant, Bareiss over the same
sparse rows, for matrices with no unit pivot such as the cocycle Jacobians.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, TypeVar

from .scalars import ONE, ZERO

T = TypeVar("T")

SparseRow = Dict[int, T]
UnitRule = Callable[[T], bool]


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


def echelon(
    vectors: Iterable[Mapping[int, T]],
    one: T = ONE,
    width: Optional[int] = None,
    is_unit: Optional[UnitRule] = None,
) -> Dict[int, SparseRow]:
    """The elimination loop: kept rows keyed by pivot, in increasing pivot order.

    The vectors (zero entries dropped) wait in their given order.  The loop
    walks the indices they touch below ``width`` (default: all) in
    increasing order.  At index c it searches down the column for the first
    waiting vector whose entry there ``is_unit`` accepts (any entry when it is
    None), swaps it with the first waiting vector as row-swapping elimination
    does, keeps it scaled to 1 at pivot c, and reduces every vector still
    waiting by it at c.  So each kept row is 0 at every earlier pivot and at
    every index below its own.  A column whose waiting entries include no
    unit raises ``ZeroDivisionError``.
    """
    waiting = [{k: c for k, c in vector.items() if not c.is_zero()} for vector in vectors]
    columns = sorted({k for v in waiting for k in v if width is None or k < width})
    rows: Dict[int, SparseRow] = {}
    for c in columns:
        hits = [i for i, v in enumerate(waiting) if c in v]
        if not hits:
            continue
        i = next((i for i in hits if is_unit is None or is_unit(waiting[i][c])), None)
        if i is None:
            raise ZeroDivisionError(f"no unit pivot in column {c}")
        waiting[0], waiting[i] = waiting[i], waiting[0]
        v = waiting.pop(0)
        inv = one / v[c]
        row = rows[c] = {k: x * inv for k, x in v.items()}
        for other in waiting:
            if c in other:
                add_into(other, -other[c], row)
    return rows


def _reduced(
    vectors: Iterable[Mapping[int, T]],
    one: T = ONE,
    width: Optional[int] = None,
    is_unit: Optional[UnitRule] = None,
) -> Dict[int, SparseRow]:
    """The kept rows of :func:`echelon`, each then also 0 at every later pivot."""
    rows = echelon(vectors, one, width, is_unit)
    kept = list(rows.items())
    for j in range(len(kept) - 1, 0, -1):
        p, row = kept[j]
        for _, other in kept[:j]:
            if p in other:
                add_into(other, -other[p], row)
    return rows


def sparse_basis(vectors: Iterable[Mapping[int, T]], one: T = ONE) -> List[SparseRow]:
    """A basis of the span of sparse vectors: the kept rows, by increasing pivot."""
    return list(echelon(vectors, one).values())


def rank(vectors: Iterable[Mapping[int, T]]) -> int:
    """The dimension of the span of sparse vectors: the number of rows kept."""
    return len(echelon(vectors))


def same_span(a: Sequence[Mapping[int, T]], b: Sequence[Mapping[int, T]]) -> bool:
    """Whether two families of sparse vectors span the same subspace."""
    rank_a = rank(a)
    return rank_a == rank(b) == rank([*a, *b])


def column_kernel(columns: Sequence[Mapping[int, T]]) -> List[SparseRow]:
    """A basis of ``{c : sum_j c_j columns[j] = 0}``, as sparse coefficient vectors.

    Each zero column gives its unit vector, first; then each free column f of
    the reduced form, over just the coordinates the columns touch, gives the
    vector that is 1 at f and ``-row[f]`` at each row's pivot.
    """
    basis: List[SparseRow] = [{j: ONE} for j, col in enumerate(columns) if not col]
    coords: Dict[int, SparseRow] = {}
    for j, col in enumerate(columns):
        for k, c in col.items():
            coords.setdefault(k, {})[j] = c
    rows = _reduced(coords.values())
    for f, col in enumerate(columns):
        if col and f not in rows:
            vec = {f: ONE}
            for p, row in rows.items():
                if f in row:
                    vec[p] = -row[f]
            basis.append(dict(sorted(vec.items())))
    return basis


def inverse(
    rows: Sequence[Mapping[int, T]], one: T = ONE, is_unit: Optional[UnitRule] = None
) -> List[SparseRow]:
    """The rows of the inverse of a square matrix: the reduced form of ``[M | I]``.

    Raises ``ValueError`` if the matrix is singular, and ``ZeroDivisionError``
    (the ring rule) if elimination finds no pivot that ``is_unit`` accepts.
    """
    n = len(rows)
    reduced = _reduced(({**row, n + i: one} for i, row in enumerate(rows)), one, n, is_unit)
    if len(reduced) < n:
        raise ValueError("singular matrix")
    return [dict(sorted((k - n, c) for k, c in reduced[p].items() if k >= n)) for p in range(n)]


def determinant(rows: Sequence[Mapping[int, T]], one: T = ONE) -> T:
    """Determinant of a square matrix of sparse rows, by Bareiss fraction-free
    elimination (Math. Comp. 22, 1968).

    Each step sets ``m[i][j] = (m[i][j] * p - m[i][c] * m[c][j]) / prev`` for
    pivot ``p`` and previous pivot ``prev``, swapping rows on a zero pivot.  It
    updates only the indices ``j > c`` where row i or the pivot row is
    nonzero: every other entry stays 0.  Every division is exact in an
    integral domain, so Q(i) and the Laurent ring Q(i)[u^±1] of
    :class:`~contactcheck.poly.MultiPoly` share it.
    """
    m = [{k: x for k, x in row.items() if not x.is_zero()} for row in rows]
    n = len(m)
    negate = False
    prev = one
    for c in range(n):
        pivot = next((i for i in range(c, n) if c in m[i]), None)
        if pivot is None:
            return one - one  # zero of the ring
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            negate = not negate
        top = m[c]
        p = top[c]
        for i in range(c + 1, n):
            row, lead = m[i], m[i].get(c)
            new = {}
            for j in row.keys() if lead is None else row.keys() | top.keys():
                if j <= c:
                    continue
                if lead is None or j not in top:
                    value = row[j] * p
                elif j in row:
                    value = row[j] * p - lead * top[j]
                else:
                    value = -(lead * top[j])
                value = value / prev
                if not value.is_zero():
                    new[j] = value
            m[i] = new
        prev = p
    return -prev if negate else prev
