"""Exact elimination against the dense oracle on seeded Q(i) matrices."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcheck.forms import ChartMap, ChartSpace, PolyForm
from contactcheck.linalg import (
    add_into,
    add_scaled,
    add_terms,
    column_kernel,
    combine,
    determinant,
    dot,
    echelon,
    inverse,
    rank,
    same_span,
    sparse_basis,
)
from contactcheck.poly import MultiPoly
from contactcheck.scalars import GaussianRational, ONE, ZERO
from conftest import gq
from oracles import dense_mat_vec, dense_nullspace, dense_rref, leibniz_determinant, naive_dot, naive_scaled_sum
from oracles import naive_keyed_sum, naive_poly, naive_product_sum
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


# Chart pairs of CP^3, CP^5 and CP^7; the CP^3 ids are the bare pair "i-j".
TRANSITIONS = [
    pytest.param(n_vars, i, j, id=f"{i}-{j}" if n_vars == 4 else f"cp{n_vars - 1}-{i}-{j}")
    for n_vars in (4, 6, 8)
    for i in range(n_vars)
    for j in range(n_vars)
    if i != j
]


@pytest.mark.parametrize("n_vars,i,j", TRANSITIONS)
def test_determinant_of_transition_jacobians(n_vars, i, j):
    # Chart k of projective space has the coordinates u_m = zeta_m / zeta_k,
    # m != k, so chart j's read on chart i are u_i -> 1/u_j and u_m -> u_m/u_j.
    coords = [f"u{m}" for m in range(n_vars) if m != i]
    u = {m: MultiPoly.variable(f"u{m}", coords) for m in range(n_vars) if m != i}
    inverse_u_j = MultiPoly(coords, {tuple(-(name == f"u{j}") for name in coords): ONE})
    trans = {
        f"u{m}": inverse_u_j if m == i else u[m] * inverse_u_j for m in range(n_vars) if m != j
    }
    # The pullback of chart j's dv_0 ^ ... ^ dv_m along the transition is the
    # Jacobian determinant times chart i's, read off the full key.
    source, target = ChartSpace(coords), ChartSpace(list(trans))
    full = tuple(range(len(coords)))
    pulled = ChartMap(source, target, trans).pull(PolyForm(target, len(full), {full: target.coeff_const(1)}))
    assert set(pulled.terms) == {full}
    det = pulled.terms[full]
    if n_vars <= 6:
        jac = [[trans[name].diff(v) for name in trans] for v in coords]
        assert det == leibniz_determinant(jac, one=MultiPoly.const(1, coords))
    # the Jacobian of u -> (1/u_j, u_m/u_j) on CP^m is a unit times u_j^-(m+1)
    u_j = MultiPoly.variable(f"u{j}", coords)
    unit = (det * u_j**n_vars).constant_value()
    assert not unit.is_zero() and det == (u_j**-n_vars).scale(unit)


#: Scalars for the triple kernel: real and complex, equal and unequal
#: denominators, and negatives of each other, so sums cancel.
TRIPLE_SCALARS = [
    gq(1), gq(-1), gq(2), gq(Fraction(1, 2)), gq(Fraction(-3, 4)), gq(0, 1), gq(0, -1),
    gq(0, Fraction(1, 2)), gq(Fraction(1, 3), Fraction(2, 3)), gq(2, -3),
    gq(Fraction(5, 6), Fraction(-1, 4)), gq(Fraction(-5, 6), Fraction(1, 4)),
]
triple_scalars = st.sampled_from(TRIPLE_SCALARS)
triple_vectors = st.dictionaries(st.integers(0, 4), triple_scalars, min_size=1, max_size=4)
#: A step ``out += f * vec``: ``f`` may be ZERO (``exp_ad(..., 0)``'s factors),
#: and ``m`` scales f's triple to a triple not in lowest terms, as a product
#: of two triples (``StructureConstants.bracket``) can be.
triple_steps = st.tuples(st.sampled_from([*TRIPLE_SCALARS, ZERO]), st.sampled_from([1, 2, 6]), triple_vectors)


def _assert_canonical_nonzero(values):
    for value in values:
        a, b, d = value.triple
        assert type(value) is GaussianRational and d > 0 and gcd(a, b, d) == 1
        assert (a, b) != (0, 0)


def _scale(out, f, m, vec):
    """``out += f * vec`` by ``add_into``, or by ``add_scaled`` on f's triple times m."""
    if m == 1 or f.is_zero():
        add_into(out, f, vec)
    else:
        add_scaled(out, tuple(m * x for x in f.triple), vec)


@given(st.lists(triple_steps, min_size=1, max_size=10), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_scaled_sums_and_dots_match_operator_sums(steps, again):
    """``add_into``/``add_scaled`` and ``dot`` against sums by the scalar
    operators from zero.  The steps are made, then made again with ``-f``, so
    every entry cancels and the sum is empty, then a prefix is made a third
    time, so entries come back after cancelling.  Every stored value and every
    dot product is canonical, and no stored value is zero."""
    negated = [(-f, m, vec) for f, m, vec in steps]
    out = {}
    done = []
    for stage in (steps, negated, steps[:again]):
        for f, m, vec in stage:
            _scale(out, f, m, vec)
            done.append((f, vec))
        assert out == naive_scaled_sum(done)
        _assert_canonical_nonzero(out.values())
    assert naive_scaled_sum(done[: len(steps) * 2]) == {}
    pairs = [(f, c) for f, vec in done for c in vec.values()]
    for chosen in (pairs, pairs[: len(pairs) // 2], pairs + [(-u, v) for u, v in pairs]):
        got = dot(chosen)
        assert got == naive_dot(chosen)
        if got.is_zero():
            assert got is ZERO
        else:
            _assert_canonical_nonzero([got])
    assert dot([]) is ZERO


#: Exponent keys over two variables, negative ones included, as the chart
#: calculus feeds ``add_scaled``; a piece ``k * c * u^shift * p`` has an int
#: ``k`` (a sign or an exponent factor), so its triple ``(k a, k b, d)`` may
#: be out of lowest terms.
expo_keys = st.tuples(st.integers(-1, 2), st.integers(-1, 2))
product_pieces = st.tuples(
    st.sampled_from([1, -1, 2, -3]),
    triple_scalars,
    expo_keys,
    st.dictionaries(expo_keys, triple_scalars, min_size=1, max_size=4),
)


@given(st.lists(product_pieces, min_size=1, max_size=8), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_shifted_scaled_sums_match_the_product_sum_oracle(pieces, again):
    """``add_scaled`` with a ``shift`` on exponent-tuple keys against
    ``naive_product_sum``.  The pieces are added, then added again with
    ``-k`` so every monomial cancels, then a prefix is added a third time, so
    monomials come back after cancelling.  Every stored value is canonical
    and none is zero."""
    negated = [(-k, c, shift, terms) for k, c, shift, terms in pieces]
    out = {}
    done = []
    for stage in (pieces, negated, pieces[:again]):
        for k, c, shift, terms in stage:
            a, b, d = c.triple
            add_scaled(out, (k * a, k * b, d), terms, shift)
            done.append((k, c, shift, terms))
        assert out == naive_product_sum(done)
        _assert_canonical_nonzero(out.values())
    assert naive_product_sum(done[: len(pieces) * 2]) == {}


XY = ("x", "y")
_x, _y = MultiPoly.variable("x", XY), MultiPoly.variable("y", XY)
#: Nonzero polynomials and their negatives, so sums cancel in part or whole.
SUMMANDS = [_x, _x + 1, (_x * _y).scale(gq(1, 2)), _y**-1 - _x, MultiPoly.const(gq(0, 3), XY)]
SUMMANDS += [-p for p in SUMMANDS]


@given(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from(SUMMANDS)), min_size=1, max_size=10),
    st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_keyed_polynomial_sums_match_a_naive_sum(items, again):
    """``add_terms`` on ``MultiPoly`` values against a sum from zero, key by
    key.  The items are added, then added negated so every key cancels, then
    a prefix is added again.  No stored value is zero, and a key met once
    since it was last absent stores that very value."""
    negated = [(key, -value) for key, value in items]
    out = {}
    done = []
    for stage in (items, negated, items[:again]):
        fresh = [key for key in {key for key, _ in stage} if key not in out]
        add_terms(out, stage)
        done += stage
        assert {key: naive_poly(value) for key, value in out.items()} == naive_keyed_sum(done)
        assert all(not value.is_zero() for value in out.values())
        for key in fresh:
            met = [value for k, value in stage if k == key]
            if len(met) == 1:
                assert out[key] is met[0]
    assert naive_keyed_sum(done[: len(items) * 2]) == {}
