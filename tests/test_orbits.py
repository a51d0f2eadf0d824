import itertools
from fractions import Fraction

import pytest

from contactcheck.lie import StructureConstants, chi_differential, killing
from contactcheck.orbits import (
    AlgebraAutomorphism,
    embedding_checks,
    exp_ad,
    kappa,
    kappa_round_trip,
    moment_map,
    orbit_sample,
    rescale_point,
    tangent_rank,
    theta_G_checks,
)
from contactcheck.sampling import SeededSampler
from contactcheck.scalars import GaussianRational, ONE, ZERO
from conftest import gq

TYPES = ["A1", "A2", "G2"]


def test_exp_zero_is_identity(algebra_bundle):
    rs, sc, kd, _ = algebra_bundle("A2")
    m = exp_ad(sc, rs.roots[0], Fraction(0))
    assert all(
        m.columns[j][i] == (1 if i == j else 0) for i in range(sc.dim) for j in range(sc.dim)
    )


def test_exp_inverse(algebra_bundle):
    rs, sc, kd, _ = algebra_bundle("G2")
    t = Fraction(3, 5)
    prod = exp_ad(sc, rs.highest, t).compose(exp_ad(sc, rs.highest, -t))
    assert all(
        prod.columns[j][i] == (1 if i == j else 0) for i in range(sc.dim) for j in range(sc.dim)
    )


@pytest.mark.parametrize("name", TYPES)
def test_exp_columns_match_dense_matrix_oracle(name, algebra_bundle):
    from oracles import exp_ad_matrix

    rs, sc, _, _ = algebra_bundle(name)
    for root in rs.roots:
        for t in (Fraction(0), Fraction(3, 5), Fraction(-2)):
            columns = exp_ad(sc, root, t).columns
            oracle = exp_ad_matrix(sc, root, t)
            assert all(
                columns[j][i] == oracle[i][j] for i in range(sc.dim) for j in range(sc.dim)
            ), (root, t)


def test_exp_rejects_non_roots(algebra_bundle):
    rs, sc, _, _ = algebra_bundle("A2")
    with pytest.raises(ValueError):
        exp_ad(sc, (2, 0), Fraction(1))


def test_a1_lowering_curve_is_quadratic(algebra_bundle):
    """exp(t ad e_{-rho}) e_rho is a degree-2 polynomial curve in t.

    Coefficients come from the bracket table: the linear term is h_rho-dual
    and the quadratic term is rho(h_rho)/2 * e_{-rho}; the series-on-vector
    oracle recomputes the same curve.
    """
    from oracles import exp_ad_on_vector

    rs, sc, kd, _ = algebra_bundle("A1")
    neg = rs.negative(rs.highest)
    e_rho = sc.unit(sc.basis.root_index(rs.highest))
    t = Fraction(2, 3)
    moved = exp_ad(sc, neg, t).apply(e_rho)
    assert moved == exp_ad_on_vector(sc, neg, t, e_rho)
    # degree-2 curve: linear coefficient = [e_-rho, e_rho] = h_rho-dual
    linear = sc.bracket(sc.unit(sc.basis.root_index(neg)), e_rho)
    quadratic = sc.bracket(sc.unit(sc.basis.root_index(neg)), linear)
    cubic = sc.bracket(sc.unit(sc.basis.root_index(neg)), quadratic)
    assert any(not c.is_zero() for c in quadratic)
    assert all(c.is_zero() for c in cubic)
    scalar_t = GaussianRational(t)
    expected = [
        e + scalar_t * l + scalar_t * scalar_t * q / GaussianRational(2)
        for e, l, q in zip(e_rho, linear, quadratic)
    ]
    assert moved == expected


@pytest.mark.parametrize("name", TYPES)
def test_automorphism_invariants_on_words(name, algebra_bundle):
    rs, sc, kd, _ = algebra_bundle(name)
    sampler = SeededSampler(5)
    for _ in range(3):
        (root, t), = sampler.word(rs, 1)
        m = exp_ad(sc, root, t)
        assert m.preserves_brackets()
        assert m.preserves_form(kd)


@pytest.mark.parametrize("name", TYPES)
def test_orbit_points_isotropic(name, algebra_bundle):
    rs, sc, kd, _ = algebra_bundle(name)
    sampler = SeededSampler(11)
    for k in range(4):
        pt = orbit_sample(sc, kd, sampler.word(rs, k % 3))
        assert kd.form(pt.vector, pt.vector).is_zero()
        assert any(not c.is_zero() for c in pt.vector)


def test_empty_word_is_e_rho(algebra_bundle):
    rs, sc, kd, _ = algebra_bundle("A2")
    pt = orbit_sample(sc, kd, [])
    assert pt.vector == sc.unit(sc.basis.root_index(rs.highest))


def test_a2_one_letter_word_components(algebra_bundle):
    """exp(ad e_{-a1}) e_rho keeps its e_rho component and picks up e_{a2}."""
    rs, sc, kd, _ = algebra_bundle("A2")
    word = [((-1, 0), Fraction(1))]
    pt = orbit_sample(sc, kd, word)
    rho_idx = sc.basis.root_index(rs.highest)
    a2_idx = sc.basis.root_index((0, 1))
    assert not pt.vector[rho_idx].is_zero()
    assert not pt.vector[a2_idx].is_zero()
    # the orbit point is the automorphism's image of e_rho
    m = exp_ad(sc, (-1, 0), Fraction(1))
    assert pt.vector == m.apply(sc.unit(rho_idx))


def test_moment_of_e_rho_single_entry(algebra_bundle):
    for name in TYPES:
        rs, sc, kd, _ = algebra_bundle(name)
        pt = orbit_sample(sc, kd, [])
        mv = moment_map(sc, kd, pt)
        neg_idx = sc.basis.root_index(rs.negative(rs.highest))
        for i, c in enumerate(mv.coefficients):
            assert c == (gq(-1) if i == neg_idx else gq(0))


@pytest.mark.parametrize("name", TYPES)
def test_kappa_round_trip(name, algebra_bundle):
    rs, sc, kd, _ = algebra_bundle(name)
    sampler = SeededSampler(13)
    for k in range(5):
        pt = orbit_sample(sc, kd, sampler.word(rs, 1 + k % 2))
        assert kappa_round_trip(sc, kd, pt)


@pytest.mark.parametrize("name", TYPES)
def test_moment_equivariance(name, algebra_bundle):
    """B(M pt, X) = B(pt, M^{-1} X): the coadjoint transformation law."""
    rs, sc, kd, _ = algebra_bundle(name)
    sampler = SeededSampler(19)
    (root, t), = sampler.word(rs, 1)
    m = exp_ad(sc, root, t)
    m_inv = exp_ad(sc, root, -t)
    pt = orbit_sample(sc, kd, sampler.word(rs, 1))
    moved = m.apply(pt.vector)
    for i in range(sc.dim):
        lhs = kd.form(moved, sc.unit(i))
        rhs = kd.form(pt.vector, m_inv.apply(sc.unit(i)))
        assert lhs == rhs


@pytest.mark.parametrize("name", TYPES)
def test_kappa_intertwines_action(name, algebra_bundle):
    """kappa(M pt) = M kappa(pt): the musical map intertwines the action."""
    rs, sc, kd, _ = algebra_bundle(name)
    sampler = SeededSampler(23)
    (root, t), = sampler.word(rs, 1)
    m = exp_ad(sc, root, t)
    pt = orbit_sample(sc, kd, sampler.word(rs, 2))
    moved_vector = m.apply(pt.vector)
    from contactcheck.orbits import MomentVector, OrbitPoint

    moved_pt = OrbitPoint(moved_vector, pt.word)
    assert kappa(sc, kd, moment_map(sc, kd, moved_pt)) == m.apply(
        kappa(sc, kd, moment_map(sc, kd, pt))
    )


def test_rescaling_covers_the_fiber_direction(algebra_bundle):
    rs, sc, kd, _ = algebra_bundle("A2")
    pt = orbit_sample(sc, kd, [])
    scaled = rescale_point(pt, gq(Fraction(9, 4)))  # t^2 e_rho for t = 3/2
    assert scaled.vector == [gq(Fraction(9, 4)) * c for c in pt.vector]
    assert chi_differential(kd, sc) == gq(2)
    with pytest.raises(ValueError):
        rescale_point(pt, gq(0))


@pytest.mark.parametrize("name", TYPES)
def test_theta_g_suite(name, algebra_bundle):
    rs, sc, kd, gd = algebra_bundle(name)
    results = theta_G_checks(sc, kd, gd)
    assert all(r.status == "pass" for r in results), results


def _with_l0(gd, l0):
    from contactcheck.lie import GradedDecomposition

    return GradedDecomposition(gd.sc, gd.kd, gd.pieces, dict(gd.spans, L0=l0))


@pytest.mark.parametrize("name", TYPES)
def test_theta_g_kernel_check_fails_on_a_wrong_centralizer(name, algebra_bundle):
    """A dropped L0 vector gives unequal dims; one swapped for e_{-rho} equal dims."""
    rs, sc, kd, gd = algebra_bundle(name)
    l0 = gd.spans["L0"]
    e_neg = {sc.basis.root_index(rs.negative(rs.highest)): ONE}
    for wrong, witness in [
        (l0[:-1], f"kernel dim {len(l0)}, centralizer dim {len(l0) - 1}"),
        (l0[:-1] + [e_neg], f"kernel dim {len(l0)}, centralizer dim {len(l0)}"),
    ]:
        result = theta_G_checks(sc, kd, _with_l0(gd, wrong))[0]
        assert (result.check_id, result.status, result.witness) == (
            "theta_G:kernel-is-centralizer", "fail", witness
        )


CENTRALIZER_DIMS = {"A1": 1, "A2": 4, "G2": 8}


@pytest.mark.parametrize("name", sorted(CENTRALIZER_DIMS))
def test_centralizer_dims(name, algebra_bundle):
    _, sc, kd, gd = algebra_bundle(name)
    assert len(gd.spans["L0"]) == CENTRALIZER_DIMS[name]
    assert sc.dim - CENTRALIZER_DIMS[name] == len(gd.pieces[1]) + 2


@pytest.mark.parametrize("name", TYPES)
def test_embedding_ranks(name, algebra_bundle):
    rs, sc, kd, gd = algebra_bundle(name)
    sampler = SeededSampler(37)
    points = [orbit_sample(sc, kd, [])] + [
        orbit_sample(sc, kd, sampler.word(rs, 2)) for _ in range(3)
    ]
    ranks = [tangent_rank(sc, pt) for pt in points]
    assert ranks == [len(gd.pieces[1]) + 2] * len(points)
    results = embedding_checks(sc, kd, gd, points, ranks)
    assert all(r.status != "fail" for r in results), [r for r in results if r.status == "fail"]
    wrong = embedding_checks(sc, kd, gd, points, [ranks[0] - 1] + ranks[1:])
    failed = [r for r in wrong if r.status == "fail"]
    assert [(r.check_id, r.witness) for r in failed] == [
        ("embedding:tangent-rank-0", f"rank {ranks[0] - 1} != {ranks[0]}")
    ]


def test_duplicate_points_flagged_not_failed(algebra_bundle):
    rs, sc, kd, gd = algebra_bundle("A1")
    pt = orbit_sample(sc, kd, [])
    results = embedding_checks(sc, kd, gd, [pt, pt], [tangent_rank(sc, pt)] * 2)
    separations = [r for r in results if r.check_id.startswith("embedding:separation")]
    assert separations and all(r.status == "skipped" for r in separations)
    assert all(r.status == "pass" for r in results if "tangent" in r.check_id)


def test_ad_e_rho_cubed_vanishes(algebra_bundle):
    from oracles import nilpotency_degree_on

    for name in TYPES:
        rs, sc, _, _ = algebra_bundle(name)
        assert nilpotency_degree_on(sc, sc.basis.root_index(rs.highest)) == 3


@pytest.mark.parametrize("name", ["A2", "G2"])
def test_corrupted_constant_fails_every_lie_check(name, algebra_bundle):
    """Doubling one root-root bracket breaks the automorphisms, the form and Jacobi."""
    from test_lie import jacobi_residual

    rs, sc, kd, _ = algebra_bundle(name)
    rank = sc.basis.rank
    key = next(k for k in sc.table if min(k) >= rank)
    table = dict(sc.table)
    table[key] = {k: c + c for k, c in table[key].items()}
    bad = StructureConstants(sc.basis, table)
    for root in rs.roots:
        assert not exp_ad(bad, root, Fraction(1)).preserves_brackets(), root
    assert killing(bad).gram != kd.gram
    assert any(
        any(not v.is_zero() for v in jacobi_residual(bad, a, b, c))
        for a, b, c in itertools.combinations(range(bad.dim), 3)
    )


ORACLE_TYPES = ["A1", "A2", "B3", "G2"]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_rho_pairing_matrix_matches_dense_oracle(name, algebra_bundle):
    """Sparse pairing column i holds ``B(e_rho, [e_i, e_j])`` over j, each a dense trace.

    The kernel of the dense pairing matrix spans the centralizer L0.
    """
    from contactcheck.orbits import _rho_pairing_columns
    from oracles import dense_ad_from_table, dense_nullspace, dense_trace, dense_vector, same_span

    rs, sc, kd, gd = algebra_bundle(name)
    ad_rho = dense_ad_from_table(sc, sc.unit(sc.basis.root_index(rs.highest)))
    columns = _rho_pairing_columns(sc, kd)
    pairing = []
    for i in range(sc.dim):
        ad_i = dense_ad_from_table(sc, sc.unit(i))
        row = []
        for j in range(sc.dim):
            bracket = [ad_i[k][j] for k in range(sc.dim)]
            row.append(dense_trace(ad_rho, dense_ad_from_table(sc, bracket)))
            assert columns[i].get(j, ZERO) == row[-1], (i, j)
        pairing.append(row)
    l0 = [dense_vector(vec, sc.dim) for vec in gd.spans["L0"]]
    assert same_span(dense_nullspace(pairing), l0)


def _oracle_preserves_form(sc, auto):
    """Every pair of images keeps its dense Killing trace."""
    from oracles import dense_ad_from_table, dense_trace

    units = [dense_ad_from_table(sc, sc.unit(i)) for i in range(sc.dim)]
    images = [dense_ad_from_table(sc, col) for col in auto.columns]
    return all(
        dense_trace(images[i], images[j]) == dense_trace(units[i], units[j])
        for i in range(sc.dim)
        for j in range(i, sc.dim)
    )


def _perturbed(auto, j):
    """``auto`` with one nonzero off-diagonal entry of column j raised by 1."""
    columns = [list(col) for col in auto.columns]
    i = next(i for i, c in enumerate(columns[j]) if i != j and not c.is_zero())
    columns[j][i] = columns[j][i] + 1
    return AlgebraAutomorphism(auto.sc, columns)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_preserves_form_matches_dense_oracle(name, algebra_bundle):
    rs, sc, kd, _ = algebra_bundle(name)
    auto = exp_ad(sc, rs.negative(rs.highest), Fraction(2, 3))
    assert auto.preserves_form(kd) and _oracle_preserves_form(sc, auto)
    bad = _perturbed(auto, sc.basis.root_index(rs.highest))
    assert not bad.preserves_form(kd) and not _oracle_preserves_form(sc, bad)
    # Doubling the image of e_rho keeps B(x, x) = 0 on it, so only the
    # off-diagonal pairs can catch it.
    rho_idx = sc.basis.root_index(rs.highest)
    doubled = AlgebraAutomorphism(
        sc, [[c + c for c in col] if j == rho_idx else col for j, col in enumerate(auto.columns)]
    )
    assert not doubled.preserves_form(kd) and not _oracle_preserves_form(sc, doubled)


@pytest.mark.parametrize("name", TYPES)
def test_perturbed_exp_ad_column_fails_both_invariants(name, algebra_bundle):
    """One changed entry in one column breaks both the brackets and the form."""
    rs, sc, kd, _ = algebra_bundle(name)
    for root in rs.roots:
        auto = exp_ad(sc, root, Fraction(-3, 2))
        j = sc.basis.root_index(rs.negative(root))
        bad = _perturbed(auto, j)
        assert not bad.preserves_brackets(), root
        assert not bad.preserves_form(kd), root


ALL_TYPES = ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2", "D4", "F4", "E6"]


def _sample_points(rs, sc, kd):
    sampler = SeededSampler(41)
    return [orbit_sample(sc, kd, [])] + [orbit_sample(sc, kd, sampler.word(rs, 2)) for _ in range(2)]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_block_kappa_equals_the_full_gram_solve(name, algebra_bundle):
    """kappa's Cartan-block and root-pair solve gives linalg.solve(Gram, .)."""
    from contactcheck import linalg
    from contactcheck.orbits import MomentVector

    rs, sc, kd, _ = algebra_bundle(name)
    coefficients = [moment_map(sc, kd, pt).coefficients for pt in _sample_points(rs, sc, kd)]
    coefficients.append([gq(Fraction(k % 7 - 3, 1 + k % 4), k % 3 - 1) for k in range(sc.dim)])
    for c in coefficients:
        assert kappa(sc, kd, MomentVector(c)) == linalg.solve(kd.gram, c)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_moment_map_and_tangent_rank_match_unit_routes(name, algebra_bundle):
    """Gram-row moments and table-row tangent ranks equal the unit-vector routes."""
    from contactcheck import linalg

    rs, sc, kd, _ = algebra_bundle(name)
    for pt in _sample_points(rs, sc, kd):
        units = [sc.unit(i) for i in range(sc.dim)]
        assert moment_map(sc, kd, pt).coefficients == [kd.form(pt.vector, u) for u in units]
        assert tangent_rank(sc, pt) == linalg.rank([sc.bracket(u, pt.vector) for u in units])


def test_lie_and_orbit_sums_are_not_seeded_with_zero(capsys, monkeypatch):
    """No Gaussian-rational sum made in lie or orbits starts from ZERO or 0.

    A partial sum that cancels to zero on the way is data, not a seed, so
    only the ``ZERO`` constant itself and the int 0 are counted.
    """
    import sys

    from contactcheck import cli
    from contactcheck.scalars import ZERO

    add = GaussianRational.__add__
    sums, zero_sums = [], []

    def counting_add(self, other):
        caller = sys._getframe(1).f_code.co_filename
        if caller.endswith(("lie.py", "orbits.py")):
            sums.append(caller)
            if self is ZERO or other is ZERO or (type(other) is int and other == 0):
                zero_sums.append(caller)
        return add(self, other)

    monkeypatch.setattr(GaussianRational, "__add__", counting_add)
    monkeypatch.setattr(GaussianRational, "__radd__", counting_add)
    for argv in (["algebra", "G2"], ["adjoint", "G2", "--samples", "3"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert sums and zero_sums == []
