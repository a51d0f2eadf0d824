"""Independent oracle implementations used only by the tests.

Each oracle recomputes a quantity along a different path than the library:
reflection closure instead of root strings, permutation-expanded wedge
instead of shuffle merging, full contraction summed over every index tuple
instead of iterated interior products, the ``ad`` matrix filled by bracketing
unit vectors instead of the library's reads of single table rows, a dense
matrix exponential (powers of that matrix by plain nested-loop products)
instead of the library's series on basis vectors, and a two-pass dense
reduced row-echelon form (forward elimination below the pivots, then back
substitution) instead of the library's one-pass support-only Gauss-Jordan,
and a Killing form traced from dense ``ad`` matrices filled straight from the
bracket table instead of the library's weight-compatible traces over its
per-index rows, span comparisons and intersections by ranks of dense
``dim g`` vectors instead of the library's sparse bases and column kernels,
and polynomial sums, products and derivatives over plain
dicts keyed by ``(name, exponent)`` pairs instead of ``MultiPoly``'s aligned
exponent tuples.  They stay deliberately naive.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

from contactcheck.forms import PolyForm, PolyVectorField
from contactcheck.lie import SparseVec, StructureConstants
from contactcheck.poly import MultiPoly
from contactcheck.rootsystem import CartanMatrix, Root
from contactcheck.scalars import GaussianRational, ONE, ZERO


def reflection_closure(cartan: CartanMatrix) -> Set[Root]:
    """All roots as the closure of the simple roots under simple reflections."""
    n = cartan.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots: Set[Root] = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = cartan.coroot_pairing(beta, i)
            image = tuple(
                b - (pairing if j == i else 0) for j, b in enumerate(beta)
            )
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    return roots | {tuple(-c for c in r) for r in roots}


def unsorted_expansion(form: PolyForm) -> Dict[Tuple[int, ...], object]:
    """Coefficients on ALL index tuples, antisymmetrized from the sorted ones."""
    out: Dict[Tuple[int, ...], object] = {}
    for key, coeff in form.terms.items():
        for perm in itertools.permutations(range(len(key))):
            sign = _perm_sign(perm)
            tup = tuple(key[p] for p in perm)
            out[tup] = coeff if sign > 0 else -coeff
    return out


def naive_contraction(form: PolyForm, fields: Sequence[PolyVectorField]):
    """omega(X_1, ..., X_p) as a sum over every index tuple of the expansion.

    Each term is the antisymmetrized coefficient on ``(i_1, ..., i_p)`` times
    ``X_1^{i_1} ... X_p^{i_p}``; there is no 1/p! factor, because the p!
    signed orderings of one sorted key together give its determinant.
    """
    total = form.chart.coeff_zero()
    for tup, coeff in unsorted_expansion(form).items():
        term = coeff
        for field, idx in zip(fields, tup):
            if idx not in field.components:
                break
            term = term * field.components[idx]
        else:
            total = total + term
    return total


def naive_wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    """Wedge by brute concatenation over the antisymmetrized expansions."""
    chart = a.chart
    degree = a.degree + b.degree
    acc: Dict[Tuple[int, ...], object] = {}
    norm = Fraction(1, _factorial(a.degree) * _factorial(b.degree))
    for k1, c1 in unsorted_expansion(a).items():
        for k2, c2 in unsorted_expansion(b).items():
            tup = k1 + k2
            if len(set(tup)) != len(tup):
                continue
            order = tuple(sorted(range(len(tup)), key=lambda i: tup[i]))
            sign = _perm_sign(order)
            key = tuple(sorted(tup))
            piece = (c1 * c2).scale(GaussianRational(norm * sign))
            if key in acc:
                acc[key] = acc[key] + piece
            else:
                acc[key] = piece
    terms = {k: v for k, v in acc.items() if not v.is_zero()}
    return PolyForm(chart, degree, terms)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_determinant(matrix, one=ONE):
    """det as the signed sum over permutations of products of entries."""
    total = one - one
    for perm in itertools.permutations(range(len(matrix))):
        term = one
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        total = total + term if _perm_sign(perm) > 0 else total - term
    return total


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def ad_matrix(sc: StructureConstants, x: SparseVec) -> List[List[GaussianRational]]:
    """Dense matrix of ad(x) on basis-coordinate columns: column j is ``[x, e_j]``."""
    n = sc.dim
    cols = [sc.bracket(x, {j: ONE}) for j in range(n)]
    return [[cols[j].get(i, ZERO) for j in range(n)] for i in range(n)]


def exp_ad_on_vector(sc: StructureConstants, root: Root, t: Fraction, vector: SparseVec) -> SparseVec:
    """exp(t ad e_root) applied to one vector: the series of dense ``ad_matrix`` products."""
    scalar = GaussianRational(t)
    ad = ad_matrix(sc, {sc.basis.root_index(tuple(root)): ONE})
    total = dense_vector(vector, sc.dim)
    current = list(total)
    k = 1
    while any(not c.is_zero() for c in current):
        current = dense_mat_vec(ad, current)
        factor = scalar**k / GaussianRational(_factorial(k))
        total = [a + factor * b for a, b in zip(total, current)]
        k += 1
        if k > sc.dim + 2:
            raise AssertionError("series did not terminate")
    return {i: c for i, c in enumerate(total) if not c.is_zero()}


def exp_ad_matrix(
    sc: StructureConstants, root: Root, t: Fraction
) -> List[List[GaussianRational]]:
    """exp(t ad e_root) as a dense matrix: sum of t^k/k! times powers of ad_matrix."""
    n = sc.dim
    ad = ad_matrix(sc, {sc.basis.root_index(tuple(root)): ONE})
    scalar = GaussianRational(t)
    result = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    power = [row[:] for row in result]
    k = 1
    while True:
        product = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for m in range(n):
                if ad[i][m].is_zero():
                    continue
                for j in range(n):
                    product[i][j] = product[i][j] + ad[i][m] * power[m][j]
        power = product
        if all(c.is_zero() for row in power for c in row):
            return result
        factor = scalar**k / GaussianRational(_factorial(k))
        result = [
            [result[i][j] + factor * power[i][j] for j in range(n)] for i in range(n)
        ]
        k += 1
        if k > n + 1:
            raise AssertionError("ad e_root is not nilpotent")


def nilpotency_degree_on(sc: StructureConstants, root_index: int) -> int:
    """Smallest k with ``(ad e)^k = 0``, by bracketing unit vectors until they vanish."""
    e = {root_index: ONE}
    degree = 0
    for j in range(sc.dim):
        vec = {j: ONE}
        k = 0
        while vec:
            vec = sc.bracket(e, vec)
            k += 1
            if k > sc.dim:
                raise AssertionError("ad e is not nilpotent")
        degree = max(degree, k)
    return degree


def ad_eigenvalue(sc: StructureConstants, kd, index: int) -> int:
    """Eigenvalue of ad(H_rho) on a root-vector basis element, from the table."""
    image = sc.bracket(kd.hrho, {index: ONE})
    if set(image) - {index}:
        raise AssertionError("not an eigenvector")
    value = image.get(index, ZERO)
    assert value.is_real() and value.re.denominator == 1
    return int(value.re)


def dense_rref(
    rows: Sequence[Sequence[GaussianRational]],
) -> Tuple[List[List[GaussianRational]], List[int]]:
    """Reduced row-echelon form and pivot columns, every entry updated every time.

    Pass 1 clears each pivot column below the pivot without normalizing; pass 2
    walks the pivots bottom-up, scales each pivot row to 1 and clears above.
    The reduced form of a matrix is unique, so it must equal the library's.
    """
    m = [list(row) for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        found = [i for i in range(r, nrows) if not m[i][c].is_zero()]
        if not found:
            continue
        m[r], m[found[0]] = m[found[0]], m[r]
        for i in range(r + 1, nrows):
            ratio = m[i][c] / m[r][c]
            m[i] = [a - ratio * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        lead = m[r][c]
        m[r] = [a / lead for a in m[r]]
        for i in range(r):
            ratio = m[i][c]
            m[i] = [a - ratio * b for a, b in zip(m[i], m[r])]
    return m, pivots


def dense_vector(vec: Dict[int, GaussianRational], dim: int) -> List[GaussianRational]:
    """A sparse ``{index: value}`` vector written out over ``dim`` coordinates."""
    return [vec.get(k, ZERO) for k in range(dim)]


def _echelon(
    rows: Sequence[Sequence[GaussianRational]],
) -> Tuple[List[List[GaussianRational]], List[int]]:
    """Reduced row-echelon rows (zero rows dropped) and pivots, one pass over whole rows.

    Unlike :func:`dense_rref`, zeros are skipped: a row with a zero in the
    pivot column is left alone, and so is an entry above a zero of the pivot
    row, so the long sparse families of the span oracles stay cheap.
    """
    m = [list(row) for row in rows if any(not c.is_zero() for c in row)]
    pivots: List[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        lead = m[r][c]
        m[r] = [a if a.is_zero() else a / lead for a in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                ratio = m[i][c]
                m[i] = [a if b.is_zero() else a - ratio * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def dense_solve(
    matrix: Sequence[Sequence[GaussianRational]], rhs: Sequence[GaussianRational]
) -> List[GaussianRational]:
    """The solution of the square system ``matrix @ x = rhs``; ``ValueError`` if singular.

    It is read off the reduced form of ``[matrix | rhs]`` by the elimination
    that skips zeros: on the 78 x 78 Gram matrix of E6, :func:`dense_rref`
    takes about ten seconds a solve.
    """
    n = len(matrix)
    echelon, pivots = _echelon([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n] for row in echelon]


def dense_rank(rows: Sequence[Sequence[GaussianRational]]) -> int:
    return len(_echelon(rows)[1])


def dense_nullspace(rows: Sequence[Sequence[GaussianRational]]) -> List[List[GaussianRational]]:
    """A basis of ``{x : rows @ x = 0}``: one vector per free column of the echelon form."""
    ncols = len(rows[0])
    echelon, pivots = _echelon(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [ONE if c == free else ZERO for c in range(ncols)]
        for r, c in enumerate(pivots):
            x[c] = -echelon[r][free]
        basis.append(x)
    return basis


def same_span(a, b) -> bool:
    """Whether two families of dense vectors span the same subspace, by ranks."""
    rank_a = dense_rank(a)
    return rank_a == dense_rank(b) == dense_rank(list(a) + list(b))


def intersect_spans(a, b) -> List[List[GaussianRational]]:
    """A basis of span(a) intersect span(b) for families of dense vectors.

    Both families are first reduced to echelon bases.  A kernel vector
    ``(x, y)`` of the columns ``a + (-b)`` then has ``sum x_i a_i = sum y_j
    b_j``; the ``a``-combinations of a kernel basis span the intersection, and
    their echelon form is returned.
    """
    a, b = _echelon(a)[0], _echelon(b)[0]
    if not a or not b:
        return []
    dim = len(a[0])
    kernel = dense_nullspace([[v[d] for v in a] + [-v[d] for v in b] for d in range(dim)])
    meet = []
    for x in kernel:
        terms = [(xi, v) for xi, v in zip(x, a) if not xi.is_zero()]
        meet.append(
            [sum((xi * v[d] for xi, v in terms if not v[d].is_zero()), ZERO) for d in range(dim)]
        )
    return _echelon(meet)[0]


def dense_mat_vec(
    rows: Sequence[Sequence[GaussianRational]], x: Sequence[GaussianRational]
) -> List[GaussianRational]:
    """``rows @ x`` summing every product, zeros included."""
    out = []
    for row in rows:
        total = ZERO
        for a, b in zip(row, x):
            total = total + a * b
        out.append(total)
    return out


def dense_ad_from_table(sc: StructureConstants, x: SparseVec):
    """The dense matrix of ad x, filled by nested loops over ``sc.table`` alone.

    Entry ``[k][l]`` is the ``e_k`` coefficient of ``[x, e_l]``; each table
    entry ``[e_i, e_j] = c e_k`` is used in both orientations by hand.
    """
    n = sc.dim
    m = [[ZERO] * n for _ in range(n)]
    for (i, j), entry in sc.table.items():
        for k, c in entry.items():
            if i in x:
                m[k][j] = m[k][j] + x[i] * c
            if j in x:
                m[k][i] = m[k][i] - x[j] * c
    return m


def dense_trace(a, b) -> GaussianRational:
    """``trace(a . b)`` of two square matrices, summed over every (k, l)."""
    total = ZERO
    for k in range(len(a)):
        for l in range(len(a)):
            if not a[k][l].is_zero():
                total = total + a[k][l] * b[l][k]
    return total


def dense_killing_form(sc: StructureConstants, x: SparseVec, y: SparseVec) -> GaussianRational:
    """``trace(ad x . ad y)`` from two dense ad matrices built from the table."""
    return dense_trace(dense_ad_from_table(sc, x), dense_ad_from_table(sc, y))


# A monomial as its sorted ``(name, exponent)`` pairs with exponent > 0, so two
# polynomials over different or permuted variable lists need no alignment.
Monomial = Tuple[Tuple[str, int], ...]
NaivePoly = Dict[Monomial, GaussianRational]


def naive_poly(p: MultiPoly) -> NaivePoly:
    """Read a polynomial's stored terms into name-keyed monomials, zeros included."""
    return {
        tuple(sorted((name, k) for name, k in zip(p.vars, expo) if k)): coeff
        for expo, coeff in p.terms.items()
    }


def _nonzero(terms: NaivePoly) -> NaivePoly:
    return {mono: c for mono, c in terms.items() if not c.is_zero()}


def naive_poly_add(a: NaivePoly, b: NaivePoly) -> NaivePoly:
    """``a + b``, every coefficient accumulated from zero."""
    out: NaivePoly = {}
    for terms in (a, b):
        for mono, c in terms.items():
            out[mono] = out.get(mono, ZERO) + c
    return _nonzero(out)


def naive_poly_mul(a: NaivePoly, b: NaivePoly) -> NaivePoly:
    """``a * b`` as the full convolution of the two term dicts."""
    out: NaivePoly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            expo = dict(m1)
            for name, k in m2:
                expo[name] = expo.get(name, 0) + k
            mono = tuple(sorted((name, k) for name, k in expo.items() if k))
            out[mono] = out.get(mono, ZERO) + c1 * c2
    return _nonzero(out)


def naive_poly_diff(a: NaivePoly, var: str) -> NaivePoly:
    """``d a / d var`` term by term, accumulated from zero."""
    out: NaivePoly = {}
    for mono, c in a.items():
        expo = dict(mono)
        k = expo.get(var, 0)
        if not k:
            continue
        expo[var] = k - 1
        key = tuple(sorted((name, e) for name, e in expo.items() if e))
        out[key] = out.get(key, ZERO) + c * k
    return _nonzero(out)


def naive_poly_evaluate(a: NaivePoly, point) -> GaussianRational:
    """The value at ``point``: each monomial a product of repeated factors (of
    ``1 / value`` for a negative exponent), the sum accumulated from zero."""
    out = ZERO
    for mono, c in a.items():
        value = c
        for name, k in mono:
            factor = point[name] if k > 0 else ONE / point[name]
            for _ in range(abs(k)):
                value = value * factor
        out = out + value
    return out
