"""Exact linear algebra over Q(i) and over Laurent polynomial rings.

One matrix format: a list of sparse rows (or columns), each an ``{index:
value}`` dict that stores no zeros, the one vector format of
:mod:`contactcheck.lie`, :mod:`contactcheck.orbits` and the contact solver.
:func:`add_into`, :func:`combine` and :func:`dot` are its arithmetic.
Entries must support ``+``, ``-``, ``*``, ``/``, unary ``-`` and
``is_zero()``.

The package's two sum loops, one per entry kind, live here.  Both store a
key met for the first time and drop a key the moment its sum cancels, so no
stored value is zero, no sum starts from zero, and a key added again after
cancelling starts afresh.

- :func:`add_scaled` is the multiply-accumulate on scalars, done on their
  triples (:mod:`contactcheck.scalars`): each product and its sum with the
  stored entry in ints, one ``from_triple`` per stored value, and an entry
  that cancels dropped before any scalar is made.  Its keys are indices, or,
  with a ``shift``, exponent tuples moved by the product's monomial factor:
  that is how the chart calculus and the dtheta solve sum their products
  into plain exponent -> scalar dicts (:mod:`contactcheck.poly`, "Sums of
  products").  :func:`add_into` and :func:`combine` take a scalar
  factor through it, and :func:`dot` sums products of scalars in ints the
  same way and makes one scalar.
- :func:`add_terms` sums other entries by their operators: ``+`` of
  ``MultiPoly``, of forms and of fields, and the chart-ring rows of the
  dtheta solve in :func:`add_into`.

One elimination loop: it walks the indices the vectors touch in increasing
order, keeps at each one the first vector with a unit there, scaled to 1,
and reduces every vector still waiting by it, so each kept row is 1 at its
pivot and 0 at every earlier pivot.  Each step walks only the supports of the
two rows.  Everything else is a few lines on top of it: :func:`echelon`
collects the kept rows, :func:`sparse_basis` and :func:`rank` read them,
:func:`same_span` compares ranks, :func:`column_kernel` and :func:`inverse`
back-substitute the kept rows to the reduced form, over just the coordinates
their inputs touch, and :func:`determinant` is the signed product of the
pivots, over Q(i) only.

Ring rule.  Only units divide.  The pivot rule ``is_unit`` says which
entries are units.  The loop pivots only on units: a non-unit entry gives
way to the first unit further down its column, and a column with no unit
raises ``ZeroDivisionError``.  Without a rule every nonzero entry is a unit,
the field case, so the pivot is always the first nonzero entry.  The dtheta
solve of :mod:`contactcheck.contact` passes the chart ring's rule
:meth:`~contactcheck.forms.ChartSpace.is_unit`, true for ``c * fiber^k``,
to :func:`inverse`.
"""

from __future__ import annotations

from math import gcd
from operator import add
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, TypeVar

from .scalars import ONE, ZERO, GaussianRational, Triple, from_triple

T = TypeVar("T")

SparseRow = Dict[int, T]
UnitRule = Callable[[T], bool]


def add_into(out: Dict[int, T], f: T, vec: Mapping[int, T]) -> None:
    """``out += f * vec`` on sparse vectors, dropping entries that cancel to zero.

    A zero factor leaves ``out`` as it is.  A scalar factor scales scalar
    vectors by :func:`add_scaled`; any other factor, a chart-ring entry, is
    multiplied by the entries' operators and summed by :func:`add_terms`.
    """
    if not f:
        return
    if type(f) is GaussianRational:
        add_scaled(out, f.triple, vec)
    else:
        add_terms(out, ((k, f * c) for k, c in vec.items()))


def add_terms(out: Dict[Hashable, T], items: Iterable[Tuple[Hashable, T]]) -> None:
    """``out += items`` key by key, for nonzero values summed by their operators.

    A key met for the first time stores its value itself, so no sum starts
    from zero, and a key whose sum cancels is dropped, so a key added again
    after cancelling starts afresh.
    """
    get = out.get
    for k, c in items:
        acc = get(k)
        if acc is None:
            out[k] = c
            continue
        acc = acc + c
        if acc.is_zero():
            del out[k]
        else:
            out[k] = acc


def add_scaled(
    out: Dict[Hashable, GaussianRational],
    t: Triple,
    vec: Mapping[Hashable, GaussianRational],
    shift: Optional[Tuple[int, ...]] = None,
) -> None:
    """``out += t * vec`` for scalar vectors, where ``t = (a, b, d)``, ``d > 0``,
    is the triple of a nonzero scalar, in lowest terms or not.

    With a ``shift``, the keys of ``vec`` are exponent tuples and the product
    is by the monomial ``t * u^shift``: each key moves by ``shift`` on its
    way into ``out``.  Each product, and its sum with the stored entry, is
    done in ints on the triples; one ``from_triple`` makes each stored value
    canonical, and an entry whose sum cancels is dropped before any scalar is
    made.
    """
    a1, b1, d1 = t
    get = out.get
    for k, c in vec.items():
        if shift is not None:
            k = tuple(map(add, k, shift))
        a2, b2, d2 = c.triple
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        d = d1 * d2
        acc = get(k)
        if acc is not None:
            a0, b0, d0 = acc.triple
            if d == d0:
                a += a0
                b += b0
            else:
                a = a * d0 + a0 * d
                b = b * d0 + b0 * d
                d *= d0
            if not a and not b:
                del out[k]
                continue
        out[k] = from_triple(a, b, d)


def scaled_triple(c: GaussianRational, k: int) -> Triple:
    """The triple ``(k a, k b, d)`` of ``k * c`` for an int ``k``, not reduced:
    the factor of :func:`add_scaled` for a scalar and an int multiplier."""
    if k == 1:
        return c.triple
    a, b, d = c.triple
    return (k * a, k * b, d)


def dot(pairs: Iterable[Tuple[GaussianRational, GaussianRational]]) -> GaussianRational:
    """``sum u * v`` over pairs of scalars: ``ZERO`` when there are none or they cancel.

    The products and the running sum are ints on the triples, the sum over
    the lcm of the denominators so far; one ``from_triple`` makes the result.
    """
    a = b = 0
    d = 1
    for u, v in pairs:
        a1, b1, d1 = u.triple
        a2, b2, d2 = v.triple
        p = a1 * a2 - b1 * b2
        q = a1 * b2 + b1 * a2
        e = d1 * d2
        if e != d:
            g = gcd(d, e)
            scale = e // g
            a *= scale
            b *= scale
            scale = d // g
            p *= scale
            q *= scale
            d = d // g * e
        a += p
        b += q
    if not a and not b:
        return ZERO
    return from_triple(a, b, d)


def combine(coeffs: Mapping[int, T], vectors: Sequence[Mapping[int, T]]) -> Dict[int, T]:
    """``sum_m coeffs[m] * vectors[m]``, a sparse combination of sparse vectors."""
    out: Dict[int, T] = {}
    for m, c in coeffs.items():
        add_into(out, c, vectors[m])
    return out


def _pivots(
    vectors: Iterable[Mapping[int, T]],
    one: T,
    width: Optional[int],
    is_unit: Optional[UnitRule],
) -> Iterator[Tuple[int, T, SparseRow, bool]]:
    """The elimination loop: ``(c, entry, row, swapped)`` for each kept row.

    The vectors (zero entries dropped) wait in their given order.  The loop
    walks the indices they touch below ``width`` (default: all) in
    increasing order.  At index c it searches down the column for the first
    waiting vector whose entry there ``is_unit`` accepts (any entry when it is
    None), swaps it with the first waiting vector as row-swapping elimination
    does (``swapped`` says whether that moved it), keeps it scaled to 1 at
    pivot c as ``row``, and reduces every vector still waiting by it at c.  So
    each kept row is 0 at every earlier pivot and at every index below its
    own.  A column whose waiting entries include no unit raises
    ``ZeroDivisionError``.
    """
    waiting = [{k: c for k, c in vector.items() if not c.is_zero()} for vector in vectors]
    columns = sorted({k for v in waiting for k in v if width is None or k < width})
    for c in columns:
        hits = [i for i, v in enumerate(waiting) if c in v]
        if not hits:
            continue
        i = next((i for i in hits if is_unit is None or is_unit(waiting[i][c])), None)
        if i is None:
            raise ZeroDivisionError(f"no unit pivot in column {c}")
        waiting[0], waiting[i] = waiting[i], waiting[0]
        v = waiting.pop(0)
        entry = v[c]
        inv = one / entry
        row = {k: x * inv for k, x in v.items()}
        for other in waiting:
            if c in other:
                add_into(other, -other[c], row)
        yield c, entry, row, i != 0


def echelon(
    vectors: Iterable[Mapping[int, T]], one: T = ONE, is_unit: Optional[UnitRule] = None
) -> Dict[int, SparseRow]:
    """The kept rows of the elimination loop, keyed by pivot in increasing order."""
    return {c: row for c, _, row, _ in _pivots(vectors, one, None, is_unit)}


def _reduced(
    vectors: Iterable[Mapping[int, T]],
    one: T = ONE,
    width: Optional[int] = None,
    is_unit: Optional[UnitRule] = None,
) -> Dict[int, SparseRow]:
    """The kept rows of :func:`echelon` over the indices below ``width``, each
    then also 0 at every later pivot."""
    rows = {c: row for c, _, row, _ in _pivots(vectors, one, width, is_unit)}
    kept = list(rows.items())
    for j in range(len(kept) - 1, 0, -1):
        p, row = kept[j]
        for _, other in kept[:j]:
            if p in other:
                add_into(other, -other[p], row)
    return rows


def sparse_basis(vectors: Iterable[Mapping[int, T]]) -> List[SparseRow]:
    """A basis of the span of sparse vectors: the kept rows, by increasing pivot."""
    return list(echelon(vectors).values())


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


def determinant(rows: Sequence[Mapping[int, T]]) -> T:
    """Determinant of a square matrix over Q(i): the signed product of the pivots.

    Adding a multiple of one row to another keeps the determinant, and each
    row swap negates it, so it is the product of the pivot entries of the
    elimination loop, negated once per swap, and 0 when fewer rows than the
    matrix has are kept.
    """
    det, kept = ONE, 0
    for _, entry, _, swapped in _pivots(rows, ONE, None, None):
        det = -(det * entry) if swapped else det * entry
        kept += 1
    return det if kept == len(rows) else ZERO
