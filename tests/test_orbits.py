import itertools
from fractions import Fraction

import pytest

from contactcheck.lie import StructureConstants, killing
from contactcheck.orbits import (
    AlgebraAutomorphism,
    embedding_checks,
    exp_ad,
    kappa,
    kappa_round_trip,
    moment_map,
    orbit_sample,
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
    assert m.columns == [{j: ONE} for j in range(sc.dim)]


def test_exp_inverse(algebra_bundle):
    rs, sc, kd, _ = algebra_bundle("G2")
    t = Fraction(3, 5)
    prod = exp_ad(sc, rs.highest, t).compose(exp_ad(sc, rs.highest, -t))
    assert prod.columns == [{j: ONE} for j in range(sc.dim)]


@pytest.mark.parametrize("name", TYPES)
def test_exp_columns_match_dense_matrix_oracle(name, algebra_bundle):
    from oracles import exp_ad_matrix

    rs, sc, _, _ = algebra_bundle(name)
    for root in rs.roots:
        for t in (Fraction(0), Fraction(3, 5), Fraction(-2)):
            columns = exp_ad(sc, root, t).columns
            oracle = exp_ad_matrix(sc, root, t)
            assert all(
                columns[j].get(i, ZERO) == oracle[i][j] for i in range(sc.dim) for j in range(sc.dim)
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
    from oracles import dense_vector, exp_ad_on_vector

    rs, sc, kd, _ = algebra_bundle("A1")
    neg = rs.negative(rs.highest)
    e_rho = {sc.basis.root_index(rs.highest): ONE}
    e_neg = {sc.basis.root_index(neg): ONE}
    t = Fraction(2, 3)
    moved = exp_ad(sc, neg, t).apply(e_rho)
    assert moved == exp_ad_on_vector(sc, neg, t, e_rho)
    # degree-2 curve: linear coefficient = [e_-rho, e_rho] = h_rho-dual
    linear = sc.bracket(e_neg, e_rho)
    quadratic = sc.bracket(e_neg, linear)
    cubic = sc.bracket(e_neg, quadratic)
    assert quadratic and not cubic
    scalar_t = GaussianRational(t)
    expected = [
        e + scalar_t * l + scalar_t * scalar_t * q / GaussianRational(2)
        for e, l, q in zip(*(dense_vector(v, sc.dim) for v in (e_rho, linear, quadratic)))
    ]
    assert dense_vector(moved, sc.dim) == expected


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
        pt = orbit_sample(sc, sampler.word(rs, k % 3))
        assert kd.form(pt.vector, pt.vector).is_zero()
        assert pt.vector


def test_empty_word_is_e_rho(algebra_bundle):
    rs, sc, kd, _ = algebra_bundle("A2")
    pt = orbit_sample(sc, [])
    assert pt.vector == {sc.basis.root_index(rs.highest): ONE}


def test_a2_one_letter_word_components(algebra_bundle):
    """exp(ad e_{-a1}) e_rho keeps its e_rho component and picks up e_{a2}."""
    rs, sc, kd, _ = algebra_bundle("A2")
    word = [((-1, 0), Fraction(1))]
    pt = orbit_sample(sc, word)
    rho_idx = sc.basis.root_index(rs.highest)
    a2_idx = sc.basis.root_index((0, 1))
    assert rho_idx in pt.vector and a2_idx in pt.vector
    # the orbit point is the automorphism's image of e_rho
    m = exp_ad(sc, (-1, 0), Fraction(1))
    assert pt.vector == m.apply({rho_idx: ONE})


def test_moment_of_e_rho_single_entry(algebra_bundle):
    for name in TYPES:
        rs, sc, kd, _ = algebra_bundle(name)
        pt = orbit_sample(sc, [])
        neg_idx = sc.basis.root_index(rs.negative(rs.highest))
        assert moment_map(kd, pt) == {neg_idx: gq(-1)}


@pytest.mark.parametrize("name", TYPES)
def test_kappa_round_trip(name, algebra_bundle):
    rs, sc, kd, _ = algebra_bundle(name)
    sampler = SeededSampler(13)
    for k in range(5):
        pt = orbit_sample(sc, sampler.word(rs, 1 + k % 2))
        assert kappa_round_trip(kd, pt)


@pytest.mark.parametrize("name", TYPES)
def test_moment_equivariance(name, algebra_bundle):
    """B(M pt, X) = B(pt, M^{-1} X): the coadjoint transformation law."""
    rs, sc, kd, _ = algebra_bundle(name)
    sampler = SeededSampler(19)
    (root, t), = sampler.word(rs, 1)
    m = exp_ad(sc, root, t)
    m_inv = exp_ad(sc, root, -t)
    pt = orbit_sample(sc, sampler.word(rs, 1))
    moved = m.apply(pt.vector)
    for i in range(sc.dim):
        lhs = kd.form(moved, {i: ONE})
        rhs = kd.form(pt.vector, m_inv.apply({i: ONE}))
        assert lhs == rhs


@pytest.mark.parametrize("name", TYPES)
def test_kappa_intertwines_action(name, algebra_bundle):
    """kappa(M pt) = M kappa(pt): the musical map intertwines the action."""
    rs, sc, kd, _ = algebra_bundle(name)
    sampler = SeededSampler(23)
    (root, t), = sampler.word(rs, 1)
    m = exp_ad(sc, root, t)
    pt = orbit_sample(sc, sampler.word(rs, 2))
    moved_vector = m.apply(pt.vector)
    from contactcheck.orbits import OrbitPoint

    moved_pt = OrbitPoint(moved_vector, pt.word)
    assert kappa(kd, moment_map(kd, moved_pt)) == m.apply(
        kappa(kd, moment_map(kd, pt))
    )


@pytest.mark.parametrize("name", TYPES)
def test_theta_g_suite(name, algebra_bundle):
    rs, sc, kd, gd = algebra_bundle(name)
    results = theta_G_checks(gd)
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
        result = theta_G_checks(_with_l0(gd, wrong))[0]
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
    points = [orbit_sample(sc, [])] + [orbit_sample(sc, sampler.word(rs, 2)) for _ in range(3)]
    ranks = [tangent_rank(sc, pt) for pt in points]
    assert ranks == [len(gd.pieces[1]) + 2] * len(points)
    results = embedding_checks(gd, points, ranks)
    assert all(r.status != "fail" for r in results), [r for r in results if r.status == "fail"]
    wrong = embedding_checks(gd, points, [ranks[0] - 1] + ranks[1:])
    failed = [r for r in wrong if r.status == "fail"]
    assert [(r.check_id, r.witness) for r in failed] == [
        ("embedding:tangent-rank-0", f"rank {ranks[0] - 1} != {ranks[0]}")
    ]


def test_duplicate_points_flagged_not_failed(algebra_bundle):
    rs, sc, kd, gd = algebra_bundle("A1")
    pt = orbit_sample(sc, [])
    results = embedding_checks(gd, [pt, pt], [tangent_rank(sc, pt)] * 2)
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
    ad_rho = dense_ad_from_table(sc, {sc.basis.root_index(rs.highest): ONE})
    columns = _rho_pairing_columns(kd)
    pairing = []
    for i in range(sc.dim):
        ad_i = dense_ad_from_table(sc, {i: ONE})
        row = []
        for j in range(sc.dim):
            bracket = {k: ad_i[k][j] for k in range(sc.dim) if not ad_i[k][j].is_zero()}
            row.append(dense_trace(ad_rho, dense_ad_from_table(sc, bracket)))
            assert columns[i].get(j, ZERO) == row[-1], (i, j)
        pairing.append(row)
    l0 = [dense_vector(vec, sc.dim) for vec in gd.spans["L0"]]
    assert same_span(dense_nullspace(pairing), l0)


def _oracle_preserves_form(sc, auto):
    """Every pair of images keeps its dense Killing trace."""
    from oracles import dense_ad_from_table, dense_trace

    units = [dense_ad_from_table(sc, {i: ONE}) for i in range(sc.dim)]
    images = [dense_ad_from_table(sc, col) for col in auto.columns]
    return all(
        dense_trace(images[i], images[j]) == dense_trace(units[i], units[j])
        for i in range(sc.dim)
        for j in range(i, sc.dim)
    )


def _perturbed(auto, j):
    """``auto`` with one nonzero off-diagonal entry of column j raised by 1."""
    columns = [dict(col) for col in auto.columns]
    i = min(i for i in columns[j] if i != j)
    value = columns[j][i] + 1
    if value.is_zero():
        del columns[j][i]
    else:
        columns[j][i] = value
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
        sc, [{k: c + c for k, c in col.items()} if j == rho_idx else col for j, col in enumerate(auto.columns)]
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
    return [orbit_sample(sc, [])] + [orbit_sample(sc, sampler.word(rs, 2)) for _ in range(2)]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_block_kappa_equals_the_full_gram_solve(name, algebra_bundle):
    """kappa's Cartan-block and root-pair solve gives the dense solve of Gram."""
    from oracles import dense_solve, dense_vector

    rs, sc, kd, _ = algebra_bundle(name)
    gram = [dense_vector(row, sc.dim) for row in kd.gram]
    coefficients = [moment_map(kd, pt) for pt in _sample_points(rs, sc, kd)]
    drawn = [gq(Fraction(k % 7 - 3, 1 + k % 4), k % 3 - 1) for k in range(sc.dim)]
    coefficients.append({k: c for k, c in enumerate(drawn) if not c.is_zero()})
    for c in coefficients:
        solved = dense_solve(gram, dense_vector(c, sc.dim))
        assert kappa(kd, c) == {k: x for k, x in enumerate(solved) if not x.is_zero()}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_moment_map_and_tangent_rank_match_unit_routes(name, algebra_bundle):
    """Gram-row moments and table-row tangent ranks equal the unit-vector routes."""
    from oracles import dense_rank, dense_vector

    rs, sc, kd, _ = algebra_bundle(name)
    for pt in _sample_points(rs, sc, kd):
        pairings = [kd.form(pt.vector, {i: ONE}) for i in range(sc.dim)]
        assert dense_vector(moment_map(kd, pt), sc.dim) == pairings
        tangent = [dense_vector(sc.bracket({i: ONE}, pt.vector), sc.dim) for i in range(sc.dim)]
        assert tangent_rank(sc, pt) == dense_rank(tangent)


def test_lie_and_orbit_sums_are_not_seeded_with_zero(capsys, monkeypatch):
    """No Gaussian-rational sum made in lie, orbits or linalg starts from ZERO or
    adds a zero product.

    Those sums are done in ints on the scalars' triples, by ``add_scaled``
    (scaled sparse vectors) and ``dot`` (sums of products), so the spy wraps
    the two kernels: no call scales by a zero factor or multiplies a zero,
    and no vector it adds into holds a zero to start from.  A partial sum
    that cancels on the way is data, not a seed.
    """
    import sys

    from contactcheck import cli, lie, linalg, orbits

    add_scaled, dot = linalg.add_scaled, linalg.dot
    sums, zero_sums = [], []

    def caller():
        return sys._getframe(2).f_code.co_filename

    def counting_add_scaled(out, t, vec):
        sums.append(caller())
        if not (t[0] or t[1]) or any(c.is_zero() for c in (*out.values(), *vec.values())):
            zero_sums.append(caller())
        add_scaled(out, t, vec)

    def counting_dot(pairs):
        pairs = list(pairs)
        sums.append(caller())
        if any(u.is_zero() or v.is_zero() for u, v in pairs):
            zero_sums.append(caller())
        return dot(pairs)

    for module in (linalg, lie):
        monkeypatch.setattr(module, "add_scaled", counting_add_scaled)
    for module in (linalg, lie, orbits):
        monkeypatch.setattr(module, "dot", counting_dot)
    for argv in (["algebra", "G2"], ["adjoint", "G2", "--samples", "3"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert {"lie.py", "orbits.py", "linalg.py"} <= {name.rsplit("/", 1)[-1] for name in sums}
    assert sums and zero_sums == []


@pytest.mark.parametrize("name", ["A2", "G2", "D4", "F4", "E6"])
def test_no_sparse_vector_stores_a_zero(name, algebra_bundle):
    """Dict equality is vector equality only while no vector stores a zero."""
    from contactcheck.linalg import column_kernel
    from contactcheck.orbits import _rho_pairing_columns

    rs, sc, kd, gd = algebra_bundle(name)
    word = SeededSampler(43).word(rs, 2)
    autos = [exp_ad(sc, root, t) for root, t in word]
    composed = autos[0].compose(autos[1])
    points = [orbit_sample(sc, []), orbit_sample(sc, word), orbit_sample(sc, word[:1])]
    moments = [moment_map(kd, pt) for pt in points]
    families = {
        "table rows": [entry for row in sc.rows for entry in row.values()],
        "gram rows": kd.gram,
        "hrho": [kd.hrho],
        "exp_ad columns": [col for auto in autos for col in auto.columns],
        "compose": composed.columns,
        "apply": [composed.apply(pt.vector) for pt in points],
        "orbit points": [pt.vector for pt in points],
        "moment_map": moments,
        "kappa": [kappa(kd, mv) for mv in moments],
        "L0": gd.spans["L0"],
        "G00": gd.spans["G00"],
        "cartan inverse": kd.cartan_inverse,
        "column_kernel": column_kernel(_rho_pairing_columns(kd)),
    }
    stored = {
        key: sum(c.is_zero() for vec in vectors for c in vec.values())
        for key, vectors in families.items()
    }
    assert all(vectors for vectors in families.values())
    assert stored == dict.fromkeys(families, 0)


@pytest.mark.parametrize("name", ["A2", "G2", "B3"])
def test_orbit_points_equal_the_chained_vector_oracle(name, algebra_bundle):
    """Every root, t in {3/5, -2}: one-letter words at both t, two-letter words
    over every ordered pair of roots, and a three-letter word through each root
    move e_rho as the dense series oracle does, letter by letter."""
    from oracles import exp_ad_on_vector

    rs, sc, _, _ = algebra_bundle(name)
    roots, ts = rs.roots, (Fraction(3, 5), Fraction(-2))
    words = [[(a, t)] for a in roots for t in ts]
    words += [[(a, ts[0]), (b, ts[1])] for a in roots for b in roots]
    words += [
        [(a, ts[p % 2]), (roots[-1 - p], ts[1]), (roots[(p + len(roots) // 3) % len(roots)], ts[0])]
        for p, a in enumerate(roots)
    ]
    e_rho = {sc.basis.root_index(rs.highest): ONE}
    for word in words:
        expected = e_rho
        for root, t in word:
            expected = exp_ad_on_vector(sc, root, t, expected)
        pt = orbit_sample(sc, word)
        assert (pt.vector, pt.word) == (expected, tuple(word)), word


@pytest.mark.parametrize("name, fixing, total", [
    ("A2", 3, 6), ("G2", 7, 12), ("B3", 11, 18), ("D4", 15, 24), ("F4", 33, 48), ("E6", 51, 72),
])
def test_letters_of_nonnegative_height_fix_e_rho(name, fixing, total, algebra_bundle):
    """exp(t ad e_a) fixes e_rho when a(H_rho) >= 0, so a word of only such
    letters returns exactly e_rho, the point of the empty word."""
    rs, sc, _, _ = algebra_bundle(name)
    letters = [a for a in rs.roots if rs.rho_height(a) >= 0]
    assert (len(letters), len(rs.roots)) == (fixing, total)
    word = [(a, Fraction(3 + k, 5) if k % 2 else Fraction(-2 - k)) for k, a in enumerate(letters)]
    e_rho = {sc.basis.root_index(rs.highest): ONE}
    assert orbit_sample(sc, word).vector == e_rho
    assert all(orbit_sample(sc, [letter]).vector == e_rho for letter in word)
    lowering = [a for a in rs.roots if rs.rho_height(a) < 0]
    assert all(orbit_sample(sc, [(a, Fraction(1))]).vector != e_rho for a in lowering)


def test_e6_seed_2024_coincident_sample_is_such_a_word(algebra_bundle):
    """`adjoint E6 --samples 3` at seed 2024 skips separation-0-2: its second
    drawn word has letters of heights 0 and 1, so point 2 is e_rho, point 0."""
    rs, sc, _, gd = algebra_bundle("E6")
    sampler = SeededSampler(2024)
    words = [sampler.word(rs, 2) for _ in range(2)]
    assert [a for a, _ in words[1]] == [(0, 0, -1, -1, -1, -1), (1, 1, 2, 2, 2, 1)]
    assert [rs.rho_height(a) for a, _ in words[1]] == [0, 1]
    points = [orbit_sample(sc, [])] + [orbit_sample(sc, w) for w in words]
    assert points[2].vector == points[0].vector != points[1].vector
    results = embedding_checks(gd, points, [tangent_rank(sc, pt) for pt in points])
    skipped = [(r.check_id, r.witness) for r in results if r.status == "skipped"]
    assert skipped == [("embedding:separation-0-2", "coincident sample")]
