"""Independent oracle implementations used only by the tests.

Each oracle recomputes a quantity along a different path than the library:
reflection closure instead of root strings, permutation-expanded wedge
instead of shuffle merging, d as a sum of such wedges ``dc/dv dv ^ dx_I``
instead of the library's merge of each ``v`` into each key, full contraction
summed over every index tuple instead of iterated interior products, the ``ad`` matrix filled by bracketing
unit vectors instead of the library's reads of single table rows, a dense
matrix exponential (powers of that matrix by plain nested-loop products)
instead of the library's series on single vectors, and a two-pass dense
reduced row-echelon form (forward elimination below the pivots, then back
substitution) instead of the library's one-pass support-only Gauss-Jordan,
and a Killing form traced from dense ``ad`` matrices filled straight from the
bracket table instead of the library's weight-compatible traces over its
per-index rows, the rescaled algebra from Q(i) scale factors of such dense
traces instead of the library's integer traces and quotients, the Chevalley
constants by a walk over root coordinate tuples instead of the library's
walk over root indices, span comparisons and intersections by ranks of dense
``dim g`` vectors instead of the library's sparse bases and column kernels,
and polynomial sums, products and derivatives over plain
dicts keyed by ``(name, exponent)`` pairs instead of ``MultiPoly``'s
exponent tuples over one variable tuple (with directional derivatives and
field brackets built from whole partials and products of them instead of the
library's partials summed into one term dict, each derivative taken in one
variable at a time and accumulated from zero instead of the library's one
pass that reads every variable's partial off each term, substitution
by repeated products of the images instead of the library's powers summed in
one accumulator, and weighted degrees read from the t-exponents of the
substitution ``x -> t^w x`` instead of the library's reads of the
exponents), section gauges found by substituting each transition into every
image of a section and comparing component by component instead of the
library's one quotient of unit images, Q(i) arithmetic on a pair of
plain ``Fraction`` parts instead of the library's integer triples, and a
multiply-accumulate sum built by the scalar operators in a plain dict from
zero instead of ``linalg.add_scaled``'s sums in ints on those triples, and scaled
sparse vectors and dot products summed the same way instead of
``linalg``'s sums in ints.  They stay
deliberately naive.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


def naive_exterior_derivative(form: PolyForm) -> PolyForm:
    """d as ``sum_v (dc/dv) dv ^ dx_I`` over every term, each a :func:`naive_wedge`."""
    chart = form.chart
    one = chart.coeff_const(1)
    acc: Dict[Tuple[int, ...], object] = {}
    for key, coeff in form.terms.items():
        dx = PolyForm(chart, form.degree, {key: one})
        for v, name in enumerate(chart.all_vars):
            dc_dv = PolyForm(chart, 1, {(v,): coeff.diff(name)})
            for k, c in naive_wedge(dc_dv, dx).terms.items():
                acc[k] = acc[k] + c if k in acc else c
    terms = {k: v for k, v in acc.items() if not v.is_zero()}
    return PolyForm(chart, form.degree + 1, terms)


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
    eigenvalue = value.integer()
    assert eigenvalue is not None
    return eigenvalue


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


def rescaled_chevalley_table(rs, basis, chevalley) -> Dict[Tuple[int, int], SparseVec]:
    """``build_algebra``'s table from the ``int`` Chevalley table, in Q(i) throughout.

    ``B(e_a, e_{-a})`` is the :func:`dense_trace` of two dense ad matrices of
    the Chevalley table; each negative root vector is scaled by ``s = -1/B``,
    and an entry ``c`` of ``[e_i, e_j]`` on ``e_k`` becomes ``s_i s_j c / s_k``
    by Q(i) products and one division.  Keys keep the Chevalley table's order.
    """
    table = SimpleNamespace(dim=basis.dim, table=chevalley)
    scale = [ONE] * basis.dim
    for a in rs.positive_roots():
        i, j = basis.root_index(a), basis.root_index(rs.negative(a))
        pairing = dense_trace(dense_ad_from_table(table, {i: ONE}), dense_ad_from_table(table, {j: ONE}))
        scale[j] = -pairing.inverse()
    return {
        (i, j): {k: scale[i] * scale[j] * GaussianRational(c) / scale[k] for k, c in entry.items()}
        for (i, j), entry in chevalley.items()
    }


def _root_pairing(rs, a: Root, b: Root) -> int:
    """The symmetrized form ``sum_ij a_i b_j d_j A[i][j]`` from the Cartan data."""
    entries, sym = rs.cartan.entries, rs.cartan.symmetrizer
    return sum(a[i] * b[j] * sym[j] * entries[i][j] for i in range(len(a)) for j in range(len(b)))


def _quotient(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    assert not remainder, (num, den)
    return quotient


def walk_chevalley_constants(rs) -> Dict[Tuple[Root, Root], int]:
    """``N_{a,b}`` keyed by root pairs, by a walk over coordinate tuples.

    The positive sums in order of height: the extraspecial pair gets ``p+1``,
    each other pair of the sum follows from the Jacobi identity on
    ``(e_{-eps}, e_alpha, e_beta)``, and every pair writes its orbit by
    antisymmetry and the cycle relation.  Every sum and negative is a new
    tuple, and every root is looked up by its coordinates.
    """
    roots = set(rs.roots)
    positives = rs.positive_roots()
    norms = {r: _root_pairing(rs, r, r) for r in rs.roots}
    constants: Dict[Tuple[Root, Root], int] = {}

    def negative(r: Root) -> Root:
        return tuple(-c for c in r)

    def write_orbit(x: Root, y: Root, n: int) -> None:
        c = tuple(-a - b for a, b in zip(x, y))
        for a, b, value in (
            (x, y, n),
            (y, c, _quotient(n * norms[x], norms[c])),
            (c, x, _quotient(n * norms[y], norms[c])),
        ):
            neg_a, neg_b = negative(a), negative(b)
            constants[(a, b)] = constants[(neg_b, neg_a)] = value
            constants[(b, a)] = constants[(neg_a, neg_b)] = -value

    order = {r: i for i, r in enumerate(positives)}
    for gamma in positives:
        if sum(gamma) == 1:
            continue
        pairs = []
        for alpha in positives:
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            if beta in order and order[alpha] < order[beta]:
                pairs.append((alpha, beta))
        eps, eta = pairs[0]
        p = 0
        while tuple(b - (p + 1) * a for a, b in zip(eps, eta)) in roots:
            p += 1
        write_orbit(eps, eta, p + 1)
        neg_eps = negative(eps)
        lead = constants[(neg_eps, gamma)]
        for alpha, beta in pairs[1:]:
            beta_minus = tuple(b - c for b, c in zip(beta, eps))
            alpha_minus = tuple(a - c for a, c in zip(alpha, eps))
            total = constants.get((beta, neg_eps), 0) * constants.get((alpha, beta_minus), 0)
            total += constants.get((neg_eps, alpha), 0) * constants.get((beta, alpha_minus), 0)
            write_orbit(alpha, beta, _quotient(-total, lead))
    return constants


def walk_chevalley_table(rs) -> Dict[Tuple[int, int], Dict[int, int]]:
    """The ``int`` Chevalley table from :func:`walk_chevalley_constants`.

    Keys in sorted order: ``[h_i, e_b] = <b, a_i^v> e_b`` over every root b,
    then ``[e_a, e_{-a}]``, the coroot, and ``[e_a, e_b] = N_{a,b} e_{a+b}``
    for basis indices i < j, each index found by its root's coordinates.
    """
    rank = rs.rank
    entries = rs.cartan.entries
    index = {r: rank + k for k, r in enumerate(rs.roots)}
    table: Dict[Tuple[int, int], Dict[int, int]] = {}
    for i in range(rank):
        for b in rs.roots:
            pairing = sum(b[m] * entries[m][i] for m in range(rank))
            if pairing:
                table[(i, index[b])] = {index[b]: pairing}
    simple = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    root_root: Dict[Tuple[int, int], Dict[int, int]] = {}
    for a in rs.positive_roots():
        norm = _root_pairing(rs, a, a)
        root_root[(index[a], index[tuple(-c for c in a)])] = {
            k: _quotient(c * _root_pairing(rs, simple[k], simple[k]), norm) for k, c in enumerate(a) if c
        }
    for (a, b), n in walk_chevalley_constants(rs).items():
        if index[a] < index[b]:
            root_root[(index[a], index[b])] = {index[tuple(x + y for x, y in zip(a, b))]: n}
    for key in sorted(root_root):
        table[key] = root_root[key]
    return table


# A monomial as its sorted ``(name, exponent)`` pairs with exponent > 0, so two
# polynomials over different or permuted variable lists compare without
# re-spelling either.
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


def naive_directional_derivative(field: PolyVectorField, h: MultiPoly) -> NaivePoly:
    """``X(h) = sum_j X_j * dh/dx_j``: one full product per component, summed from zero."""
    out: NaivePoly = {}
    for j, comp in field.components.items():
        dh = naive_poly_diff(naive_poly(h), field.chart.all_vars[j])
        out = naive_poly_add(out, naive_poly_mul(naive_poly(comp), dh))
    return out


def naive_bracket(x: PolyVectorField, y: PolyVectorField) -> Dict[int, NaivePoly]:
    """``[X, Y]_i = X(Y_i) - Y(X_i)`` by index, the nonzero components only."""
    minus_one: NaivePoly = {(): GaussianRational(-1)}
    zero = x.chart.coeff_zero()
    out: Dict[int, NaivePoly] = {}
    for i in range(x.chart.dim):
        forward = naive_directional_derivative(x, y.components.get(i, zero))
        backward = naive_directional_derivative(y, x.components.get(i, zero))
        component = naive_poly_add(forward, naive_poly_mul(minus_one, backward))
        if component:
            out[i] = component
    return out


def _naive_power(base: NaivePoly, k: int, inverse: NaivePoly) -> NaivePoly:
    """``base^k`` by repeated products, of ``inverse`` when ``k < 0``."""
    out: NaivePoly = {(): ONE}
    for _ in range(abs(k)):
        out = naive_poly_mul(out, base if k > 0 else inverse)
    return out


def naive_substitute(p: MultiPoly, images: Dict[str, MultiPoly]) -> NaivePoly:
    """``p`` with each variable replaced by its image, term by term from zero.

    A negative power needs a single-term image ``c * m``, inverted as
    ``c^-1 * m^-1``; an unbound variable maps to itself.
    """
    out: NaivePoly = {}
    for mono, c in naive_poly(p).items():
        term: NaivePoly = {(): c}
        for name, k in mono:
            image = naive_poly(images[name]) if name in images else {((name, 1),): ONE}
            inverse = {
                tuple((v, -e) for v, e in m): ONE / value for m, value in image.items()
            } if len(image) == 1 else {}
            term = naive_poly_mul(term, _naive_power(image, k, inverse))
        out = naive_poly_add(out, term)
    return out


def _naive_unit_inverse(unit: NaivePoly) -> NaivePoly:
    """``1 / (c * m)`` as ``c^-1 * m^-1``."""
    ((mono, c),) = unit.items()
    return {tuple((v, -e) for v, e in mono): ONE / c}


def naive_gauge(weights: Dict[str, int], sec_i, sec_j, trans: Dict[str, MultiPoly]) -> Optional[NaivePoly]:
    """The g with ``sigma_i(x) = g^(w_x) * sigma_j(x)(trans)`` for every chart
    variable x, or None when there is no such single-term g.

    Substitute and compare: every image of ``sigma_j`` is carried to chart i
    by :func:`naive_substitute`.  Chart j's unit variable is found by reading
    every image: it is the one variable of weight 1 whose image has a single
    nonzero term, of the empty monomial.  Its two images give the one
    candidate, and every component is compared with ``g^(w_x)`` times its
    carried image by repeated products.
    """
    units = [x for x, image in sec_j.images.items() if weights[x] == 1 and list(_nonzero(naive_poly(image))) == [()]]
    if len(units) != 1:
        return None
    moved = {x: naive_substitute(image, trans) for x, image in sec_j.images.items()}
    num, den = naive_poly(sec_i.images[units[0]]), moved[units[0]]
    if len(num) != 1 or len(den) != 1:
        return None
    g = naive_poly_mul(num, _naive_unit_inverse(den))
    for x, image in sec_i.images.items():
        power = _naive_power(g, weights[x], _naive_unit_inverse(g))
        if naive_poly(image) != naive_poly_mul(power, moved[x]):
            return None
    return g


def naive_scaling_degrees(p: MultiPoly, weights: Dict[str, int]) -> Set[int]:
    """The t-degrees of ``p(t^w x)``.

    Each variable x becomes the product ``t^{w_x} * x`` over the variables of
    ``p`` and one more, ``t``; the powers are multiplied out factor by factor,
    and t's exponent is read off each monomial of the result.
    """
    t = "t"
    assert t not in p.vars
    images = {
        name: MultiPoly(p.vars + (t,), {tuple(int(v == name) for v in p.vars) + (weights.get(name, 0),): ONE})
        for name in p.vars
    }
    widened = MultiPoly(p.vars + (t,), {expo + (0,): c for expo, c in p.terms.items()})
    return {dict(mono).get(t, 0) for mono in naive_substitute(widened, images)}


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


class FractionPair:
    """Q(i) as a pair of plain ``Fraction`` parts, with schoolbook arithmetic.

    The reference for :class:`~contactcheck.scalars.GaussianRational`: it
    shares no code with the integer kernel, divides by way of ``re/n, -im/n``
    with ``n = re^2 + im^2``, and takes powers by repeated multiplication.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other: "FractionPair") -> "FractionPair":
        return FractionPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "FractionPair") -> "FractionPair":
        return FractionPair(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "FractionPair") -> "FractionPair":
        return FractionPair(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __neg__(self) -> "FractionPair":
        return FractionPair(-self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "FractionPair":
        n = self.norm_sq()
        return FractionPair(self.re / n, -self.im / n)

    def __truediv__(self, other: "FractionPair") -> "FractionPair":
        return self * other.inverse()

    def __pow__(self, k: int) -> "FractionPair":
        out = FractionPair(1)
        for _ in range(abs(k)):
            out = out * self
        return out.inverse() if k < 0 else out

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __hash__(self) -> int:
        # A real value equals its rational part, so it hashes as that part.
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if not self.im:
            return str(self.re)
        imag = {1: "i", -1: "-i"}.get(self.im, f"{self.im}i")
        if not self.re:
            return imag
        return f"{self.re}{'+' if self.im > 0 else ''}{imag}"


Piece = Tuple[int, GaussianRational, Tuple[int, ...], Dict[Tuple[int, ...], GaussianRational]]


def naive_product_sum(pieces: Sequence[Piece]) -> Dict[Tuple[int, ...], GaussianRational]:
    """``sum k * c * u^shift * p`` over the pieces ``(k, c, shift, terms of p)``:
    each product by the scalar operators, accumulated from zero, zeros dropped at the end."""
    out: Dict[Tuple[int, ...], GaussianRational] = {}
    for k, c, shift, terms in pieces:
        for expo, value in terms.items():
            key = tuple(a + b for a, b in zip(expo, shift))
            out[key] = out.get(key, ZERO) + c * value * k
    return {key: value for key, value in out.items() if not value.is_zero()}


def naive_scaled_sum(steps: Sequence[Tuple[GaussianRational, Dict[int, GaussianRational]]]) -> Dict[int, GaussianRational]:
    """``sum f * vec`` over the steps ``(f, vec)`` of sparse scalar vectors:
    each product by the scalar operators, accumulated from zero, zeros dropped at the end."""
    out: Dict[int, GaussianRational] = {}
    for f, vec in steps:
        for k, c in vec.items():
            out[k] = out.get(k, ZERO) + f * c
    return {k: value for k, value in out.items() if not value.is_zero()}


def naive_keyed_sum(items: Sequence[Tuple[int, MultiPoly]]) -> Dict[int, NaivePoly]:
    """``sum`` of polynomials key by key, each read by :func:`naive_poly` and
    added from zero; a key whose sum is zero is dropped at the end."""
    out: Dict[int, NaivePoly] = {}
    for key, value in items:
        out[key] = naive_poly_add(out.get(key, {}), naive_poly(value))
    return {key: terms for key, terms in out.items() if terms}


def naive_dot(pairs: Sequence[Tuple[GaussianRational, GaussianRational]]) -> GaussianRational:
    """``sum u * v`` by the scalar operators, accumulated from zero."""
    total = ZERO
    for u, v in pairs:
        total = total + u * v
    return total
