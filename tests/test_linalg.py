"""Exact elimination against the dense oracle on seeded Q(i) matrices."""

import itertools
import random
from fractions import Fraction

import pytest

from contactcheck.contact import projective_transition
from contactcheck.forms import ChartSpace
from contactcheck.linalg import (
    column_kernel,
    combine,
    determinant,
    echelon,
    inverse,
    rank,
    same_span,
    sparse_basis,
)
from contactcheck.poly import MultiPoly
from contactcheck.scalars import GaussianRational, ONE, ZERO
from conftest import gq
from oracles import dense_mat_vec, dense_nullspace, dense_rref, leibniz_determinant
from oracles import same_span as dense_same_span

SEEDS = range(8)
KINDS = ["sparse", "dense", "zero-row-and-column", "rank-deficient", "wide", "zero"]
SQUARE_KINDS = [kind for kind in KINDS if kind != "wide"]


def _entry(rng):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.5 else 0
    return GaussianRational(re, im)


def _random_rows(rng, nrows, ncols, density):
    return [
        [_entry(rng) if rng.random() < density else ZERO for _ in range(ncols)]
        for _ in range(nrows)
    ]


def matrix(seed, kind, square=False):
    """A seeded matrix of the given kind; ``square`` forces nrows == ncols except for "wide"."""
    rng = random.Random(f"{seed}-{kind}")
    nrows = rng.randint(3, 7)
    ncols = nrows if square else rng.randint(3, 8)
    if kind == "sparse":
        return _random_rows(rng, nrows, ncols, 0.25)
    if kind == "dense":
        return _random_rows(rng, nrows, ncols, 1.0)
    if kind == "zero-row-and-column":
        rows = _random_rows(rng, nrows, ncols, 0.8)
        zero_row, zero_col = rng.randrange(nrows), rng.randrange(ncols)
        rows[zero_row] = [ZERO] * ncols
        for row in rows:
            row[zero_col] = ZERO
        return rows
    if kind == "rank-deficient":
        base = _random_rows(rng, rng.randint(1, nrows - 1), ncols, 0.6)
        rows = list(base)
        while len(rows) < nrows:
            combo = [ZERO] * ncols
            for row in base:
                coeff = _entry(rng)
                combo = [a + coeff * b for a, b in zip(combo, row)]
            rows.append(combo)
        rng.shuffle(rows)
        return rows
    if kind == "wide":
        return _random_rows(rng, 3, 9, 0.7)
    assert kind == "zero"
    return [[ZERO] * ncols for _ in range(nrows)]


def _sparse(rows):
    return [{k: c for k, c in enumerate(row) if not c.is_zero()} for row in rows]


def _columns(rows):
    return _sparse([[row[j] for row in rows] for j in range(len(rows[0]))])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_row_echelon_and_rank_match_oracle(seed, kind):
    """The loop keeps one row per pivot of the reduced form, and leaves its input alone."""
    rows = _sparse(matrix(seed, kind))
    before = [dict(row) for row in rows]
    _, pivots = dense_rref(matrix(seed, kind))
    assert sorted(echelon(rows)) == pivots
    assert rank(rows) == len(pivots)
    assert rows == before


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_kept_row_is_one_at_its_pivot_and_zero_at_earlier_pivots(seed, kind):
    rows = echelon(_sparse(matrix(seed, kind)))
    kept = list(rows.items())
    assert [p for p, _ in kept] == sorted(rows)
    for m, (pivot, row) in enumerate(kept):
        assert row[pivot] == ONE and pivot == min(row)
        assert not any(p in row for p, _ in kept[:m])
        assert not any(c.is_zero() for c in row.values())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_is_a_kernel_basis(seed, kind):
    """column_kernel gives exactly the free-column vectors of the reduced form."""
    rows = matrix(seed, kind)
    ncols = len(rows[0])
    basis = [[vec.get(j, ZERO) for j in range(ncols)] for vec in column_kernel(_columns(rows))]
    assert len(basis) == ncols - len(dense_rref(rows)[1])
    for vec in basis:
        assert all(v.is_zero() for v in dense_mat_vec(rows, vec))
    if basis:
        assert len(dense_rref(basis)[1]) == len(basis)
    oracle = dense_nullspace(rows)
    assert len(oracle) == len(basis) and all(vec in oracle for vec in basis)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_basis_spans_the_rows(seed, kind):
    """A semi-echelon basis: as many rows as the rank, spanning the same space."""
    rows = matrix(seed, kind)
    ncols = len(rows[0])
    sparse = [{k: c for k, c in enumerate(row) if not c.is_zero()} for row in rows]
    basis = sparse_basis(sparse)
    leads = [min(vec) for vec in basis]
    assert leads == sorted(set(leads))
    assert all(vec[min(vec)] == ONE and not any(c.is_zero() for c in vec.values()) for vec in basis)
    dense = [[vec.get(k, ZERO) for k in range(ncols)] for vec in basis]
    assert len(basis) == len(dense_rref(rows)[1])
    assert len(dense_rref(dense + rows)[1]) == len(basis)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_span_matches_the_dense_oracle(seed, kind):
    """Repeated, dependent, dropped and swapped families, compared both ways."""
    rng = random.Random(f"span-{seed}-{kind}")
    rows = matrix(seed, kind)
    ncols = len(rows[0])
    combos = [
        [a + _entry(rng) * b for a, b in zip(rows[rng.randrange(len(rows))], row)]
        for row in rows
    ]
    shuffled = rng.sample(rows, len(rows))
    families = [
        rows,
        rows + rows,
        shuffled + combos,
        combos,
        rows[:-1],
        rows[:-1] + [_random_rows(rng, 1, ncols, 0.5)[0]],
        [],
    ]
    for a, b in itertools.combinations(families, 2):
        assert same_span(_sparse(a), _sparse(b)) == dense_same_span(a, b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_column_kernel_is_a_kernel_basis(seed, kind):
    """The sparse columns of a matrix have the kernel its dense nullspace has."""
    rows = matrix(seed, kind)
    ncols = len(rows[0])
    basis = column_kernel(_columns(rows))
    dense = [[vec.get(j, ZERO) for j in range(ncols)] for vec in basis]
    assert len(basis) == ncols - len(dense_rref(rows)[1])
    for vec in dense:
        assert all(v.is_zero() for v in dense_mat_vec(rows, vec))
    if basis:
        assert len(dense_rref(dense)[1]) == len(basis)
        assert not any(c.is_zero() for vec in basis for c in vec.values())


@pytest.mark.parametrize("kind", SQUARE_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_solve_matches_oracle(seed, kind):
    """The inverse is the right half of the reduced ``[a | I]``, and solves ``a x = b``."""
    a = matrix(seed, kind, square=True)
    rng = random.Random(seed)
    b = [_entry(rng) for _ in a]
    n = len(a)
    if len(dense_rref(a)[1]) < n:
        with pytest.raises(ValueError, match="singular matrix"):
            inverse(_sparse(a))
        return
    inv = inverse(_sparse(a))
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    echelon_form, _ = dense_rref([row + unit for row, unit in zip(a, identity)])
    assert inv == _sparse([row[n:] for row in echelon_form])
    # x = sum_i b_i (column i of a^-1), the columns being the rows of inverse(a^T)
    x = combine(dict(enumerate(b)), inverse(_columns(a)))
    x = [x.get(i, ZERO) for i in range(n)]
    echelon_form, _ = dense_rref([row + [bi] for row, bi in zip(a, b)])
    assert x == [echelon_form[i][n] for i in range(n)]
    assert dense_mat_vec(a, x) == b


def test_empty_matrix():
    assert echelon([]) == {}
    assert rank([]) == 0
    assert sparse_basis([]) == []
    assert column_kernel([]) == []
    assert inverse([]) == []


CHART = ChartSpace(["z"], "lam")
Z = CHART.coeff_var("z")
LAM = CHART.coeff_var("lam")
L1 = CHART.coeff_const(1)


def _laurent_rows(rows):
    return [{j: c for j, c in enumerate(row) if not c.is_zero()} for row in rows]


@pytest.mark.parametrize("rows,expected", [
    ([[Z, L1 + Z], [L1, L1]], [["-1", "z + 1"], ["1", "-z"]]),
    ([[LAM, Z], [L1 - L1, LAM * LAM]], [["lam^-1", "lam^-3*(-z)"], ["0", "lam^-2"]]),
], ids=["non-unit-first-pivot", "unit-diagonal"])
def test_inverse_over_the_laurent_ring(rows, expected):
    """A non-unit entry gives way to the first unit further down its column."""
    inv = inverse(_laurent_rows(rows), one=L1, is_unit=CHART.is_unit)
    text = [[CHART.format(row[j]) if j in row else "0" for j in range(len(rows))] for row in inv]
    assert text == expected


@pytest.mark.parametrize("rows,error", [
    ([[Z, L1 - L1], [L1 - L1, L1]], ZeroDivisionError),
    ([[Z, Z], [L1, L1]], ValueError),
], ids=["no-unit", "singular"])
def test_inverse_over_the_laurent_ring_raises(rows, error):
    with pytest.raises(error):
        inverse(_laurent_rows(rows), one=L1, is_unit=CHART.is_unit)


@pytest.mark.parametrize("kind", SQUARE_KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_determinant_matches_leibniz(seed, kind):
    a = matrix(seed, kind, square=True)
    det = determinant(_sparse(a))
    assert det == leibniz_determinant(a)
    assert det.is_zero() == (len(dense_rref(a)[1]) < len(a))


@pytest.mark.parametrize("rows,expected", [
    ([], ONE),
    ([[gq(3, -1)]], gq(3, -1)),
    ([[gq(0), gq(2), gq(1)], [gq(3), gq(1), gq(0)], [gq(1), gq(0), gq(4)]], gq(-25)),
    ([[gq(1), gq(1), gq(0)], [gq(1), gq(1), gq(1)], [gq(0), gq(1), gq(1)]], gq(-1)),
    ([[gq(1), gq(2, 1)], [gq(2), gq(4, 2)]], ZERO),
], ids=["0x0", "1x1", "zero-first-pivot", "zero-second-pivot", "singular"])
def test_determinant_special_matrices(rows, expected):
    assert determinant(_sparse(rows)) == leibniz_determinant(rows) == expected


@pytest.mark.parametrize("i,j", [(i, j) for i in range(4) for j in range(4) if i != j])
def test_determinant_of_transition_jacobians(i, j):
    trans = projective_transition(4, i, j)
    coords = [f"u{m}" for m in range(4) if m != i]
    # Sparse rows: an image without the variable u has a 0 entry (diff rejects u).
    jac = [
        {c: trans[name].diff(u) for c, name in enumerate(trans) if u in trans[name].vars}
        for u in coords
    ]
    one = MultiPoly.const(1)
    det = determinant(jac, one=one)
    dense = [[row.get(c, one - one) for c in range(len(trans))] for row in jac]
    assert det == leibniz_determinant(dense, one=one)
    # the Jacobian of u -> (1/u_j, u_m/u_j) on CP^3 is a unit times u_j^-4
    unit = (det * MultiPoly.variable(f"u{j}") ** 4).constant_value()
    assert not unit.is_zero() and det == (MultiPoly.variable(f"u{j}") ** -4).scale(unit)


@pytest.mark.parametrize("seed", SEEDS)
def test_determinant_of_polynomial_matrices(seed):
    """Bareiss divides by non-monomial pivots; each division must be exact."""
    rng = random.Random(f"{seed}-poly")
    xy = ("x", "y")
    x, y = MultiPoly.variable("x", xy), MultiPoly.variable("y", xy)
    monomials = [MultiPoly.const(1, xy), x, y, x * y, x * x]

    def entry():
        return sum((m.scale(rng.randint(-3, 3)) for m in monomials), MultiPoly.zero(xy))

    rows = [[entry() for _ in range(3)] for _ in range(3)]
    one = MultiPoly.const(1)
    assert determinant(_sparse(rows), one=one) == leibniz_determinant(rows, one=one)
