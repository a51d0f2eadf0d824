import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest

from contactcheck.lie import (
    LieBasis,
    StructureConstants,
    _chevalley_constants,
    _chevalley_table,
    _root_norms,
    build_algebra,
    chi_differential,
    g00_span_check,
    grade,
    killing,
)
from contactcheck.scalars import GaussianRational, ONE, ZERO
from oracles import (
    ad_eigenvalue,
    dense_ad_from_table,
    dense_killing_form,
    dense_trace,
    dense_vector,
    intersect_spans,
    same_span,
)

CORE_TYPES = ["A1", "A2", "C2", "G2"]


def jacobi_residual(sc, a, b, c):
    """The three cyclic double brackets of e_a, e_b, e_c, summed in every coordinate."""
    ua, ub, uc = {a: ONE}, {b: ONE}, {c: ONE}
    terms = [sc.bracket(sc.bracket(x, y), z) for x, y, z in ((ua, ub, uc), (ub, uc, ua), (uc, ua, ub))]
    return [terms[0].get(k, ZERO) + terms[1].get(k, ZERO) + terms[2].get(k, ZERO) for k in range(sc.dim)]


@pytest.mark.parametrize("name", CORE_TYPES)
def test_jacobi_identity_exhaustive(name, algebra_bundle):
    _, sc, _, _ = algebra_bundle(name)
    for a, b, c in itertools.combinations(range(sc.dim), 3):
        assert all(v.is_zero() for v in jacobi_residual(sc, a, b, c))


@pytest.mark.parametrize("name", CORE_TYPES)
def test_antisymmetry(name, algebra_bundle):
    _, sc, _, _ = algebra_bundle(name)
    for i in range(sc.dim):
        for j in range(sc.dim):
            lhs = sc.bracket({i: ONE}, {j: ONE})
            rhs = sc.bracket({j: ONE}, {i: ONE})
            assert lhs == {k: -v for k, v in rhs.items()}


def test_dimensions(algebra_bundle):
    assert algebra_bundle("A1")[1].dim == 3
    assert algebra_bundle("A2")[1].dim == 8
    assert algebra_bundle("G2")[1].dim == 14


def test_cartan_action_on_root_vectors(algebra_bundle):
    rs, sc, _, _ = algebra_bundle("G2")
    for i in range(rs.rank):
        for root in rs.roots:
            idx = sc.basis.root_index(root)
            pairing = rs.cartan.coroot_pairing(root, i)
            expected = {idx: GaussianRational(pairing)} if pairing else {}
            assert sc.bracket({i: ONE}, {idx: ONE}) == expected


def table_dual(sc, root):
    """``h_a = -[e_a, e_{-a}]``, read off the bracket table."""
    i = sc.basis.root_index(root)
    j = sc.basis.root_index(sc.basis.rs.negative(root))
    return {k: -c for k, c in sc.bracket({i: ONE}, {j: ONE}).items()}


def solved_dual(rs, kd, root):
    """The h_a with ``B(h_a, h_i) = <a, a_i^v>``, by a dense solve on the Cartan block."""
    from oracles import dense_solve

    rank = rs.rank
    cartan_gram = [dense_vector(row, rank) for row in kd.gram[:rank]]
    rhs = [GaussianRational(rs.cartan.coroot_pairing(root, i)) for i in range(rank)]
    return {k: c for k, c in enumerate(dense_solve(cartan_gram, rhs)) if not c.is_zero()}


@pytest.mark.parametrize("name", CORE_TYPES)
def test_weyl_normalization(name, algebra_bundle):
    """[e_a, e_{-a}] = -h_a with h_a the Killing dual of the root functional."""
    rs, sc, kd, _ = algebra_bundle(name)
    for root in rs.roots:
        assert table_dual(sc, root) == solved_dual(rs, kd, root), root


@pytest.mark.parametrize("name", CORE_TYPES)
def test_killing_duality_property(name, algebra_bundle):
    """B(h_a, H) = a(H) for Cartan H, the defining property of the duals."""
    rs, sc, kd, _ = algebra_bundle(name)
    for root in rs.roots:
        h_a = table_dual(sc, root)
        for i in range(rs.rank):
            assert kd.form(h_a, {i: ONE}) == GaussianRational(rs.cartan.coroot_pairing(root, i))


def test_a1_numbers(algebra_bundle):
    """B(h, h) = 8 for the simple coroot, h_a = h/4, a(h_a) = 1/2."""
    rs, sc, kd, _ = algebra_bundle("A1")
    assert kd.gram[0][0] == 8
    h_a = table_dual(sc, (1,))
    assert h_a == {0: GaussianRational(Fraction(1, 4))}
    assert kd.form(h_a, h_a) == GaussianRational(Fraction(1, 2))
    # B(e_a, e_{-a}) = -1 after normalization
    i, j = sc.basis.root_index((1,)), sc.basis.root_index((-1,))
    assert kd.form({i: ONE}, {j: ONE}) == -1


@pytest.mark.parametrize("name", CORE_TYPES)
def test_pairing_normalization_all_roots(name, algebra_bundle):
    """B(e_a, e_{-a}) = -1 for every root, so B(e_rho, -e_{-rho}) = 1."""
    rs, sc, kd, _ = algebra_bundle(name)
    for root in rs.roots:
        i = sc.basis.root_index(root)
        j = sc.basis.root_index(rs.negative(root))
        assert kd.form({i: ONE}, {j: ONE}) == -1


@pytest.mark.parametrize("name", CORE_TYPES)
def test_killing_orthogonality(name, algebra_bundle):
    """B(e_a, e_b) = 0 unless b = -a; B(H, e_a) = 0."""
    rs, sc, kd, _ = algebra_bundle(name)
    for a in rs.roots:
        i = sc.basis.root_index(a)
        for k in range(rs.rank):
            assert i not in kd.gram[k]
        for b in rs.roots:
            if tuple(b) == rs.negative(a):
                continue
            j = sc.basis.root_index(b)
            assert j not in kd.gram[i]


@pytest.mark.parametrize("name", CORE_TYPES)
def test_killing_invariance_exhaustive(name, algebra_bundle):
    _, sc, kd, _ = algebra_bundle(name)
    n = sc.dim
    for x, y, z in itertools.combinations(range(n), 3):
        ux, uy, uz = {x: ONE}, {y: ONE}, {z: ONE}
        assert kd.form(sc.bracket(ux, uy), uz) == -kd.form(uy, sc.bracket(ux, uz))


@pytest.mark.parametrize("name", CORE_TYPES)
def test_rho_normalization(name, algebra_bundle):
    rs, sc, kd, _ = algebra_bundle(name)
    assert kd.form(table_dual(sc, rs.highest), kd.hrho) == GaussianRational(2)


GRADING_DIMS = {
    "A1": (1, 0, 1, 0, 1),
    "A2": (1, 2, 2, 2, 1),
    "C2": (1, 2, 4, 2, 1),
    "G2": (1, 4, 4, 4, 1),
}


@pytest.mark.parametrize("name", sorted(GRADING_DIMS))
def test_grading_dimensions(name, algebra_bundle):
    _, sc, kd, gd = algebra_bundle(name)
    assert gd.dims() == GRADING_DIMS[name]
    assert sum(gd.dims()) == sc.dim


@pytest.mark.parametrize("name", CORE_TYPES)
def test_grading_matches_height_oracle(name, algebra_bundle):
    """ad(H_rho) eigenvalues from the table match the Cartan-pairing heights."""
    rs, sc, kd, gd = algebra_bundle(name)
    for root in rs.roots:
        idx = sc.basis.root_index(root)
        assert ad_eigenvalue(sc, kd, idx) == rs.rho_height(root)
        assert idx in gd.pieces[rs.rho_height(root)]


@pytest.mark.parametrize("name", CORE_TYPES)
def test_bracket_grading(name, algebra_bundle):
    """[G_i, G_j] lands in G_{i+j} (zero beyond the range)."""
    _, sc, kd, gd = algebra_bundle(name)
    level = {}
    for i, members in gd.pieces.items():
        for m in members:
            level[m] = i
    for a in range(sc.dim):
        for b in range(sc.dim):
            target = level[a] + level[b]
            for k in sc.bracket({a: ONE}, {b: ONE}):
                assert level[k] == target
                assert -2 <= target <= 2


@pytest.mark.parametrize("name", CORE_TYPES)
def test_subalgebra_lattice(name, algebra_bundle):
    """dim relations: L0 = G00 + G1 + G2 and dim G = (dim G_-2 + dim G_-1 + 1) + dim L0."""
    _, sc, kd, gd = algebra_bundle(name)
    d = gd.dims()
    g00 = len(gd.spans["G00"])
    assert g00 == d[2] - 1  # G0 = C H_rho + G00
    assert len(gd.spans["L0"]) == g00 + d[3] + d[4]
    assert sc.dim == d[0] + d[1] + 1 + len(gd.spans["L0"])


@pytest.mark.parametrize("name", CORE_TYPES)
def test_l0_is_centralizer_decomposition(name, algebra_bundle):
    """ker(ad e_rho) equals G00 + G1 + G2 as subspaces."""
    rs, sc, kd, gd = algebra_bundle(name)
    combined = [dense_vector(vec, sc.dim) for vec in gd.spans["G00"]]
    for idx in gd.pieces[1] + gd.pieces[2]:
        combined.append(dense_vector({idx: ONE}, sc.dim))
    assert same_span(combined, [dense_vector(vec, sc.dim) for vec in gd.spans["L0"]])


G00_DIMS = {"A1": 0, "A2": 1, "G2": 3}


@pytest.mark.parametrize("name", sorted(G00_DIMS))
def test_g00_double_computation(name, algebra_bundle):
    _, sc, kd, gd = algebra_bundle(name)
    assert len(gd.spans["G00"]) == G00_DIMS[name]
    assert g00_span_check(gd)


@pytest.mark.parametrize("name", CORE_TYPES)
def test_character_differential(name, algebra_bundle):
    _, sc, kd, _ = algebra_bundle(name)
    assert chi_differential(kd) == GaussianRational(2)


@pytest.mark.parametrize("name", CORE_TYPES)
def test_opposite_constants_share_signs(name, algebra_bundle):
    """N_{a,b} and N_{-a,-b} agree up to a positive rational factor.

    Full equality would force irrational rescalings (square roots of Chevalley
    pairing norms), which Q(i) does not contain; sign agreement is the exact
    shadow that survives, and it holds for every bracketing pair.
    """
    rs, sc, _, _ = algebra_bundle(name)
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if not any(s) or not rs.is_root(s):
                continue
            n_ab = sc.bracket({sc.basis.root_index(a): ONE}, {sc.basis.root_index(b): ONE}).get(
                sc.basis.root_index(s), ZERO
            )
            neg_s = rs.negative(s)
            n_neg = sc.bracket(
                {sc.basis.root_index(rs.negative(a)): ONE},
                {sc.basis.root_index(rs.negative(b)): ONE},
            ).get(sc.basis.root_index(neg_s), ZERO)
            assert n_ab.im == 0 and n_neg.im == 0
            assert not n_ab.is_zero() and not n_neg.is_zero()
            assert (n_ab.re > 0) == (n_neg.re > 0)


@pytest.mark.parametrize("name", ["A2", "B3", "G2"])
def test_unit_bracket_matches_bracket_of_units(name, algebra_bundle):
    """``[e_i, e_j]`` read from the table equals the bracket of the unit vectors,
    and minus the bracket taken the other way round."""
    _, sc, _, _ = algebra_bundle(name)
    for i in range(sc.dim):
        for j in range(sc.dim):
            entry = sc.bracket_basis(i, j)
            flipped = {k: -v for k, v in sc.bracket({j: ONE}, {i: ONE}).items()}
            assert entry == sc.bracket({i: ONE}, {j: ONE}) == flipped, (i, j)


ORACLE_TYPES = ["A1", "A2", "B3", "G2"]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_killing_gram_equals_full_all_pairs_trace(name, algebra_bundle):
    """The weight-compatible traces give the Gram matrix every pair's trace gives."""
    _, sc, kd, _ = algebra_bundle(name)
    ads = [dense_ad_from_table(sc, {i: ONE}) for i in range(sc.dim)]
    gram = [dense_vector(row, sc.dim) for row in kd.gram]
    assert gram == [[dense_trace(a, b) for b in ads] for a in ads]


def random_vector(rng, dim):
    """A seeded sparse vector with about half of its coordinates drawn."""
    vec = {}
    for k in range(dim):
        if rng.random() < 0.5:
            c = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-1, 1))
            if not c.is_zero():
                vec[k] = c
    return vec


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_killing_form_matches_dense_oracle(name, algebra_bundle):
    _, sc, kd, _ = algebra_bundle(name)
    rng = random.Random(name)
    vectors = [random_vector(rng, sc.dim) for _ in range(4)] + [kd.hrho, {sc.dim - 1: ONE}]
    for x, y in itertools.product(vectors, repeat=2):
        assert kd.form(x, y) == dense_killing_form(sc, x, y)


def _moved_off_weight(sc, key):
    """A copy of the table whose entry at ``key`` moves to another root vector."""
    (target, c), = sc.table[key].items()
    other = next(k for k in range(sc.basis.rank, sc.dim) if k != target)
    table = dict(sc.table)
    table[key] = {other: c}
    return StructureConstants(sc.basis, table)


@pytest.mark.parametrize("kind", ["cartan-root", "root-root"])
@pytest.mark.parametrize("name", ["A2", "G2"])
def test_killing_rejects_an_entry_off_its_weight(name, kind, algebra_bundle):
    _, sc, _, _ = algebra_bundle(name)
    rank = sc.basis.rank
    key = next(
        (i, j)
        for (i, j), entry in sc.table.items()
        if (i < rank if kind == "cartan-root" else i >= rank) and min(entry) >= rank
    )
    labels = sc.basis.labels
    pair = f"[{labels[key[0]]}, {labels[key[1]]}]"
    with pytest.raises(ArithmeticError, match=re.escape(pair)):
        killing(_moved_off_weight(sc, key))


# -- the sparse routes against dense oracles, past the shipped types ----------------

ALL_TYPES = ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2", "D4", "F4", "E6"]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_l0_is_the_kernel_of_the_dense_ad_matrix(name, algebra_bundle):
    """L0, read from the table row of e_rho, is a basis of ker ad(e_rho)."""
    from oracles import ad_matrix, dense_nullspace, dense_rank

    rs, sc, _, gd = algebra_bundle(name)
    ad_rho = ad_matrix(sc, {sc.basis.root_index(rs.highest): ONE})
    l0 = [dense_vector(vec, sc.dim) for vec in gd.spans["L0"]]
    assert len(l0) == sc.dim - dense_rank(ad_rho) == dense_rank(l0)
    assert same_span(l0, dense_nullspace(ad_rho))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_g00_routes_match_full_intersections(name, algebra_bundle):
    """G00 and the reduced bracket route agree with intersections of the full spans."""
    from contactcheck import linalg

    _, sc, _, gd = algebra_bundle(name)
    pieces = gd.pieces
    l0 = [dense_vector(vec, sc.dim) for vec in gd.spans["L0"]]
    g00 = [dense_vector(vec, sc.dim) for vec in gd.spans["G00"]]
    g0_units = [dense_vector({i: ONE}, sc.dim) for i in pieces[0]]
    assert same_span(g00, intersect_spans(g0_units, l0))
    brackets = [sc.bracket({i: ONE}, {j: ONE}) for i in pieces[-1] for j in pieces[1]]
    reduced = linalg.sparse_basis(brackets)
    assert len(reduced) <= len(pieces[0])
    dense = [dense_vector(vec, sc.dim) for vec in reduced]
    dense_brackets = [dense_vector(vec, sc.dim) for vec in brackets]
    assert same_span(dense, [vec for vec in dense_brackets if any(vec)])
    assert same_span(intersect_spans(dense_brackets, l0), g00)
    assert g00_span_check(gd)


@pytest.mark.parametrize("name", ["A2", "G2", "F4"])
def test_g00_check_fails_on_a_wrong_span(name, algebra_bundle):
    from contactcheck.lie import GradedDecomposition

    _, sc, kd, gd = algebra_bundle(name)
    spans = dict(gd.spans, G00=gd.spans["G00"][:-1])
    assert not g00_span_check(GradedDecomposition(sc, kd, gd.pieces, spans))


@pytest.mark.parametrize("name", ["A2", "G2", "F4"])
def test_g00_check_fails_on_a_swapped_span(name, algebra_bundle):
    """One G00 vector swapped for e_{-rho}: equal dims, a different span."""
    from contactcheck.lie import GradedDecomposition

    rs, sc, kd, gd = algebra_bundle(name)
    e_neg = {sc.basis.root_index(rs.negative(rs.highest)): ONE}
    spans = dict(gd.spans, G00=gd.spans["G00"][:-1] + [e_neg])
    assert not g00_span_check(GradedDecomposition(sc, kd, gd.pieces, spans))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_linear_coroots_equal_the_cartan_solve(name, algebra_bundle):
    """H_rho, a combination of the inverse Cartan rows, is 2 h_rho / B(h_rho, h_rho)
    with h_rho the dense solve on the Cartan block."""
    rs, _, kd, _ = algebra_bundle(name)
    h_rho = solved_dual(rs, kd, rs.highest)
    factor = GaussianRational(2) / kd.form(h_rho, h_rho)
    assert kd.hrho == {k: factor * c for k, c in h_rho.items()}


def fraction_form(cartan):
    """The symmetrized form ``(a, b) = sum a_i b_j d_j A[i][j]``, in Fractions.

    ``d`` propagates ``d_j A[i][j] = d_i A[j][i]`` from ``d_0 = 1`` along the
    Dynkin diagram and is then scaled so its least entry is 1.
    """
    n, entries = cartan.rank, cartan.entries
    d = {0: Fraction(1)}
    while len(d) < n:
        for i, j in itertools.product(list(d), range(n)):
            if j not in d and entries[i][j]:
                d[j] = d[i] * Fraction(entries[j][i], entries[i][j])
    low = min(d.values())
    sym = [(i, j, d[j] / low * entries[i][j]) for i in range(n) for j in range(n) if entries[i][j]]
    return lambda a, b: sum(a[i] * b[j] * s for i, j, s in sym if a[i] and b[j])


@pytest.mark.parametrize("name", ALL_TYPES)
def test_integer_root_norms_equal_the_pairing(name, algebra_bundle):
    rs = algebra_bundle(name)[0]
    assert all(type(d) is int for d in rs.cartan.symmetrizer)
    form = fraction_form(rs.cartan)
    for a in rs.roots:
        for b in rs.roots:
            value = rs.pairing(a, b)
            assert type(value) is int and value == form(a, b), (a, b)


def test_chevalley_constants_are_signed_string_lengths(algebra_bundle):
    """One int ``N_{a,b} = +-(p+1)`` exactly for the pairs with ``a+b`` a root,
    with ``N_{-a,-b} = -N_{a,b}`` and ``N_{a,b}/(c,c) = N_{b,c}/(a,a) =
    N_{c,a}/(b,b)`` for ``c = -(a+b)``, on every type."""
    for name in ALL_TYPES:
        rs = algebra_bundle(name)[0]
        roots = set(rs.roots)
        form = fraction_form(rs.cartan)
        norm = {r: form(r, r) for r in rs.roots}
        by_index = _chevalley_constants(rs, _root_norms(rs))
        constants = {(rs.roots[i], rs.roots[j]): n for (i, j), (n, _) in by_index.items()}
        for (i, j), (_, k) in by_index.items():
            assert rs.roots[k] == tuple(x + y for x, y in zip(rs.roots[i], rs.roots[j])), (name, i, j)
        summing = {
            (a, b) for a in rs.roots for b in rs.roots
            if tuple(x + y for x, y in zip(a, b)) in roots
        }
        assert set(constants) == summing, name
        for (a, b), n in constants.items():
            p = 0
            while tuple(y - (p + 1) * x for x, y in zip(a, b)) in roots:
                p += 1
            assert type(n) is int and abs(n) == p + 1, (name, a, b)
            neg_a, neg_b = tuple(-x for x in a), tuple(-y for y in b)
            assert constants[(neg_a, neg_b)] == -n, (name, a, b)
            c = tuple(-x - y for x, y in zip(a, b))
            assert n * norm[a] == constants[(b, c)] * norm[c], (name, a, b)
            assert n * norm[b] == constants[(c, a)] * norm[c], (name, a, b)



def test_chevalley_table_equals_the_walk_over_every_root_pair(algebra_bundle):
    """The root-root entries are those of a walk over all pairs i < j, in that
    order: ``[e_a, e_-a]`` is the coroot of the earlier root and ``[e_a, e_b]``
    is ``N_{a,b} e_{a+b}``.  The whole table is in key order."""
    for name in ALL_TYPES:
        rs = algebra_bundle(name)[0]
        form = fraction_form(rs.cartan)
        constants = {
            (rs.roots[i], rs.roots[j]): n
            for (i, j), (n, _) in _chevalley_constants(rs, _root_norms(rs)).items()
        }
        simple = [tuple(int(k == i) for k in range(rs.rank)) for i in range(rs.rank)]
        expected = {}
        for (ia, a), (ib, b) in itertools.combinations(enumerate(rs.roots), 2):
            key = (rs.rank + ia, rs.rank + ib)
            s = tuple(x + y for x, y in zip(a, b))
            if not any(s):
                coroot = [a[k] * form(e, e) / form(a, a) for k, e in enumerate(simple)]
                expected[key] = {k: GaussianRational(c) for k, c in enumerate(coroot) if c}
            elif (a, b) in constants:
                expected[key] = {rs.rank + rs.index(s): GaussianRational(constants[(a, b)])}
        table = _chevalley_table(rs, LieBasis(rs))
        assert [(k, v) for k, v in table.items() if min(k) >= rs.rank] == list(expected.items()), name
        assert list(table) == sorted(table), name


#: E7 in Bourbaki order (chain 1-3-4-5-6-7, node 2 on node 4): the largest
#: type the index route is held to the tuple walk on.
E7_CARTAN = [
    [2, 0, -1, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, -1, 2],
]


@pytest.mark.parametrize("name", ALL_TYPES + ["E7"])
def test_chevalley_table_by_root_index_equals_the_tuple_walk(name, algebra_bundle):
    """The index route's ``int`` Chevalley table is the table of the walk over
    root coordinate tuples, entry for entry and in key order."""
    from oracles import walk_chevalley_table

    from contactcheck.rootsystem import CartanMatrix, build_root_system

    if name == "E7":
        rs = build_root_system(CartanMatrix(E7_CARTAN))
        assert (rs.n_positive, rs.highest) == (63, (2, 2, 3, 4, 3, 2, 1))
    else:
        rs = algebra_bundle(name)[0]
    table = _chevalley_table(rs, LieBasis(rs))
    expected = walk_chevalley_table(rs)
    assert [(key, list(entry.items())) for key, entry in table.items()] == [
        (key, list(entry.items())) for key, entry in expected.items()
    ]

#: Dual Coxeter numbers (Bourbaki's tables); dim g_1 = 2 h^v - 4 for the
#: highest-root grading (Beauville, Fano contact manifolds and nilpotent
#: orbits, 1998).
DUAL_COXETER = {
    "A1": 2, "A2": 3, "A3": 4, "B2": 3, "C2": 3, "B3": 5, "C3": 4, "G2": 4,
    "D4": 6, "F4": 9, "E6": 12,
}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_g1_dimension_from_the_dual_coxeter_number(name, algebra_bundle):
    _, _, _, gd = algebra_bundle(name)
    assert len(gd.pieces[1]) == 2 * DUAL_COXETER[name] - 4


def test_e6_grading_and_every_suite_check(algebra_bundle, monkeypatch):
    """Injected E6: grading (1,20,36,20,1), and `algebra` and `adjoint` pass."""
    from conftest import EXTRA_CARTAN
    from contactcheck import cli, rootsystem

    _, sc, _, gd = algebra_bundle("E6")
    assert (sc.dim, gd.dims(), len(gd.pieces[1])) == (78, (1, 20, 36, 20, 1), 20)
    monkeypatch.setitem(rootsystem.CARTAN_MATRICES, "E6", EXTRA_CARTAN["E6"])
    algebra = cli.run_algebra({"command": "algebra", "type": "E6"})
    adjoint = cli.run_adjoint({"command": "adjoint", "type": "E6", "samples": 3, "seed": 2024})
    assert algebra.ok and adjoint.ok
    assert algebra.config["payload"]["piece_dims"] == [1, 20, 36, 20, 1]
    digests = [hashlib.sha256(r.to_json().encode()).hexdigest() for r in (algebra, adjoint)]
    assert digests == [
        "5943d1e0e965361297945db096d05ded12a01e58c18e4b8ee1238ba2d27af656",
        "4d3a79acae86ac8a53c8ceadafd64dfd189a360d03561cd4a80a95d8dd6de2e5",
    ]


#: sympy builds type C only from rank 3; C2 has B2's root system.
SYMPY_NAME = {"C2": "B2"}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_roots_match_sympy(name, algebra_bundle):
    """The positive-root count of every type against sympy's root tables."""
    liealgebras = pytest.importorskip("sympy.liealgebras.cartan_type")
    rs = algebra_bundle(name)[0]
    sympy_type = liealgebras.CartanType(SYMPY_NAME.get(name, name))
    assert rs.n_positive == len(sympy_type.positive_roots())


@pytest.mark.parametrize("name", ALL_TYPES)
def test_integer_build_equals_the_dense_rescaling_oracle(name, algebra_bundle):
    """``build_algebra``'s table is the ``int`` Chevalley table rescaled by the
    dense-trace oracle, entry for entry, in key order and in entry order."""
    from oracles import rescaled_chevalley_table

    rs, sc, _, _ = algebra_bundle(name)
    basis = LieBasis(rs)
    chevalley = _chevalley_table(rs, basis)
    assert all(type(c) is int for entry in chevalley.values() for c in entry.values())
    expected = rescaled_chevalley_table(rs, basis, chevalley)
    got = build_algebra(rs).table
    assert [(key, list(entry.items())) for key, entry in got.items()] == [
        (key, list(entry.items())) for key, entry in expected.items()
    ]
    assert got == sc.table


def test_degenerate_pairing_names_both_roots(monkeypatch):
    """A Chevalley table with no entry on e_a for the first positive root a
    pairs e_a with nothing: ``ArithmeticError`` names a and -a."""
    from contactcheck import lie
    from contactcheck.rootsystem import builtin_root_system

    table = lie._chevalley_table

    def without_first_root(rs, basis):
        e = basis.root_index(rs.positive_roots()[0])
        return {
            key: entry for key, entry in table(rs, basis).items() if e not in key and e not in entry
        }

    monkeypatch.setattr(lie, "_chevalley_table", without_first_root)
    rs = builtin_root_system("A2")
    assert rs.positive_roots()[0] == (0, 1)
    with pytest.raises(ArithmeticError, match=re.escape("degenerate pairing B(e_(0, 1), e_(0, -1))")):
        build_algebra(rs)
