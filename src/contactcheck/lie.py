"""Simple Lie algebras with exact structure constants and highest-root grading.

The basis is ``h_1 .. h_r`` (simple coroots) followed by one root vector per
root, in root-system order.  Construction happens in two stages:

1. A Chevalley basis, in integers: ``[h_i, e_b] = <b, a_i^v> e_b``,
   ``[e_a, e_{-a}] = a^v`` (the coroot) and ``[e_a, e_b] = N_{a,b} e_{a+b}``
   with ``N_{a,b} = +-(p+1)``, one table of ``int`` entries, signs fixed by
   the extraspecial-pair convention.  The constants are filled by
   increasing height of ``a+b``: the extraspecial pair gets ``p+1``, the
   other positive pairs follow from the Jacobi identity, and each positive
   pair writes its whole orbit at once, by antisymmetry,
   ``N_{-a,-b} = -N_{a,b}`` and the three-root cycle relation
   ``N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)`` for ``a+b+c = 0``.
   The stage works on root indices: positives come first, so the negative
   of index i is ``i +- n_positive``; each positive pair's sum is looked up
   once in :attr:`~contactcheck.rootsystem.RootSystem.indices`, and each
   orbit write records its constants with the index of their sum, so no
   other sum or negative is built as a coordinate tuple.  The ``h`` rows are
   paired on the positive roots and negated for the negatives.  Root norms
   are the integer pairing of the root system, computed once per positive
   root, and every division is an exact integer quotient.

2. A rescaling ``e_{-a} -> -e_{-a}/B(e_a, e_{-a})`` for positive ``a``, after
   which ``[e_a, e_{-a}] = -h_a`` where ``h_a`` is the Killing-form dual of
   the root ``a`` (``B(h_a, H) = a(H)``).  In particular
   ``B(e_rho, -e_{-rho}) = 1`` for the highest root ``rho``.  The integer
   ``B(e_a, e_{-a})`` is traced on the rows of the stage-1 table, and each
   Q(i) entry of the final table is written once, as an integer quotient;
   only the final table becomes a :class:`StructureConstants`.

The Killing form is always computed as ``trace(ad x . ad y)``, the trace of
two composed brackets read from the sparse table; it is never looked up as a
table entry of its own, so it doubles as a self-test of the construction:
:func:`killing` traces the final Q(i) table again, not the stage-1 values.
After checking that the table is weight-homogeneous, :func:`killing` traces
only the weight-compatible pairs (``w_i + w_j = 0``); every other trace is 0.
The dual ``h_rho`` of the highest root comes from one inverse of the r x r
Cartan block of the Gram matrix; the dual of any other root is read off the
table as ``-[e_a, e_{-a}]``.

Every vector of the algebra -- bracket table entries, Gram rows, ``H_rho``
and the spans -- is one sparse ``{index: value}`` dict that stores
no zeros, so dict equality is vector equality; the arithmetic on them is
the sum loops of :mod:`contactcheck.linalg`: a bracket scales each table
entry by the triple product ``x_i y_j``, and the traces and ``B(x, y)`` are
:func:`~contactcheck.linalg.dot` products.  Everything is read from the sparse table
rather than from dense ``ad`` matrices: the ``ad(H_rho)`` eigenvalues from
the rows of the Cartan generators, the centralizer ``L0 = ker(ad e_rho)``
from the row of ``e_rho`` (zero columns give unit vectors, the rest are
eliminated over the coordinates they touch), and ``G00 = L0 intersect G_0``
as the combinations of that basis that vanish off ``G_0``.
:func:`g00_span_check` compares the spans through
:func:`~contactcheck.linalg.column_kernel` and
:func:`~contactcheck.linalg.same_span` without writing them out.
Note that the rescaled constants satisfy ``sign N_{a,b} = sign N_{-a,-b}``
but not the stronger equality ``N_{a,b} = N_{-a,-b}``: that normalization
needs square roots of root norms, which do not exist in Q(i).
"""

from __future__ import annotations

from operator import add
from typing import Dict, Iterator, List, Optional, Tuple

from . import linalg
from .linalg import T, add_scaled, combine, dot
from .rootsystem import Root, RootSystem
from .scalars import GaussianRational, Immutable, ONE, ZERO, Triple, from_triple

SparseVec = Dict[int, GaussianRational]

_EMPTY: SparseVec = {}


class LieBasis(Immutable):
    """Ordered labels: Cartan generators first, then e_alpha per root."""

    __slots__ = ("rs", "labels", "rank", "dim")

    def __init__(self, rs: RootSystem):
        object.__setattr__(self, "rs", rs)
        rank = rs.rank
        labels = [f"h{i + 1}" for i in range(rank)]
        labels += [_root_label(r) for r in rs.roots]
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "dim", rank + len(rs.roots))

    def root_index(self, root: Root) -> int:
        """Basis index of e_root."""
        return self.rank + self.rs.index(root)

    def root_of(self, index: int) -> Optional[Root]:
        if index < self.rank:
            return None
        return self.rs.roots[index - self.rank]


def _root_label(root: Root) -> str:
    return "e[" + ",".join(str(c) for c in root) + "]"


class StructureConstants(Immutable):
    """Sparse antisymmetric bracket table over a LieBasis.

    ``table`` holds one orientation of each nonzero ``[e_i, e_j]``; ``rows[i][j]``
    holds ``[e_i, e_j]`` in both orientations, built once here.  The dicts in
    ``rows`` and those ``bracket_basis`` returns are shared: read-only.
    Inputs and outputs are sparse ``{index: value}`` dicts with no zeros.
    ``ad e_i`` is :meth:`bracket` with ``{i: ONE}``, the one table sum loop.
    """

    __slots__ = ("basis", "table", "rows")

    def __init__(self, basis: LieBasis, table: Dict[Tuple[int, int], SparseVec]):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "rows", _rows(basis.dim, table))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        return self.rows[i].get(j, _EMPTY)

    def bracket(self, x: SparseVec, y: SparseVec) -> SparseVec:
        """``[x, y]``, summed over the table rows of x's terms.

        Each ``x_i y_j`` is a product of triples in ints, and scales table
        entry ``[e_i, e_j]`` by :func:`~contactcheck.linalg.add_scaled`.
        """
        out: SparseVec = {}
        for i, xi in x.items():
            row = self.rows[i]
            a1, b1, d1 = xi.triple
            for j, yj in y.items():
                if j in row:
                    a2, b2, d2 = yj.triple
                    add_scaled(out, (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2), row[j])
        return out


def _rows(dim: int, table: Dict[Tuple[int, int], Dict[int, T]]) -> List[Dict[int, Dict[int, T]]]:
    """``rows[i][j] = [e_i, e_j]`` in both orientations, for ``int`` or Q(i)
    entries; each distinct Q(i) value is negated once, keyed by its triple."""
    rows: List[Dict[int, Dict[int, T]]] = [{} for _ in range(dim)]
    negatives: Dict[Triple, GaussianRational] = {}
    for (i, j), entry in table.items():
        rows[i][j] = entry
        rows[j][i] = flipped = {}
        for k, c in entry.items():
            if type(c) is int:
                flipped[k] = -c
                continue
            value = negatives.get(c.triple)
            if value is None:
                value = negatives[c.triple] = -c
            flipped[k] = value
    return rows


# -- Chevalley constants ----------------------------------------------------------


def _exact(num: int, den: int, what: str, *roots: Root) -> int:
    """The integer ``num / den``; a remainder raises ``ArithmeticError`` naming
    ``what``, a format string filled with ``roots``."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"{what.format(*roots)}: {num}/{den} is not an integer")
    return quotient


def _root_norms(rs: RootSystem) -> List[int]:
    """``(a, a)`` by root index, one integer pairing per positive root."""
    norms = [rs.pairing(a, a) for a in rs.positive_roots()]
    return norms + norms


def _chevalley_constants(rs: RootSystem, norms: List[int]) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """``(i, j) -> (N, k)`` for every pair of root indices whose roots sum to
    root k, with ``[e_i, e_j] = N e_k``.

    Positive pairs are fixed by increasing height of their sum; each one
    writes its whole orbit of 12 entries at once, so the Jacobi step only
    reads constants of lower height or of the current extraspecial pair.
    Each positive pair's sum is looked up once; every other sum is the
    target an orbit write records.  The negative of index i is
    ``i + n_positive`` or ``i - n_positive`` (positives come first).
    ``norms`` holds the :func:`_root_norms` of ``rs``.
    """
    roots = rs.roots
    n_pos = rs.n_positive
    neg = list(range(n_pos, 2 * n_pos)) + list(range(n_pos))
    constants: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def write_orbit(x: int, y: int, s: int, n: int) -> None:
        # With c = -(x+y) = -s: N_{x,y}/(c,c) = N_{y,c}/(x,x) = N_{c,x}/(y,y),
        # and N_{b,a} = N_{-a,-b} = -N_{a,b} for each of the three pairs; the
        # pair (a, b) sums to t and (-b, -a) to -t.
        c = neg[s]
        norm = norms[s]
        what = "cycle ratio of {}, {}"
        for a, b, t, value in (
            (x, y, s, n),
            (y, c, neg[x], _exact(n * norms[x], norm, what, roots[x], roots[y])),
            (c, x, neg[y], _exact(n * norms[y], norm, what, roots[x], roots[y])),
        ):
            neg_a, neg_b, neg_t = neg[a], neg[b], neg[t]
            constants[(a, b)] = (value, t)
            constants[(neg_b, neg_a)] = (value, neg_t)
            constants[(b, a)] = (-value, t)
            constants[(neg_a, neg_b)] = (-value, neg_t)

    positives = rs.positive_roots()
    lookup = rs.indices.get
    pairs_by_sum: List[List[Tuple[int, int]]] = [[] for _ in range(n_pos)]
    for i, alpha in enumerate(positives):
        for j in range(i + 1, n_pos):
            s = lookup(tuple(map(add, alpha, positives[j])))
            if s is not None:
                pairs_by_sum[s].append((i, j))
    for gamma, pairs in enumerate(pairs_by_sum):
        if not pairs:
            continue
        # Extraspecial pair: minimal first component in root order.
        eps, eta = pairs[0]
        write_orbit(eps, eta, gamma, rs.string_down_count(roots[eps], roots[eta]) + 1)
        neg_eps = neg[eps]
        lead = constants[(neg_eps, gamma)][0]
        if lead == 0:
            raise ArithmeticError("extraspecial pair produced a vanishing leading constant")
        for alpha, beta in pairs[1:]:
            # Jacobi identity on (e_{-eps}, e_alpha, e_beta): all three brackets
            # land on e_eta, and the other pairs sum to roots of smaller height.
            # [e_beta, e_{-eps}] and [e_{-eps}, e_alpha] name the roots
            # beta - eps and alpha - eps when they are nonzero.
            total = 0
            for (u, v), w in (((beta, neg_eps), alpha), ((neg_eps, alpha), beta)):
                outer = constants.get((u, v))
                if outer is not None:
                    inner = constants.get((w, outer[1]))
                    if inner is not None:
                        total += outer[0] * inner[0]
            write_orbit(alpha, beta, gamma,
                        _exact(-total, lead, "Jacobi quotient of {}, {}", roots[alpha], roots[beta]))
    return constants


# -- algebra construction ----------------------------------------------------------


def _chevalley_table(rs: RootSystem, basis: LieBasis) -> Dict[Tuple[int, int], Dict[int, int]]:
    """The Chevalley basis bracket table, ``int`` entries, keys in sorted order.

    ``[h_i, e_b] = <b, a_i^v> e_b``, paired on the positive roots and negated
    for the negatives; ``[e_a, e_{-a}] = a^v`` for positive a, with
    coordinates ``a_i (a_i, a_i) / (a, a)`` in the simple coroots; and
    ``[e_a, e_b] = N_{a,b} e_{a+b}``, all by root index.
    """
    rank = rs.rank
    n_pos = rs.n_positive
    positives = rs.positive_roots()
    norms = _root_norms(rs)
    pairings = [[rs.cartan.coroot_pairing(b, i) for b in positives] for i in range(rank)]
    table: Dict[Tuple[int, int], Dict[int, int]] = {}
    for i, row in enumerate(pairings):
        for sign, offset in ((1, rank), (-1, rank + n_pos)):
            for k, pairing in enumerate(row):
                if pairing:
                    table[(i, offset + k)] = {offset + k: sign * pairing}
    # Root-root keys come after every (h_i, e_b) key; they are gathered and
    # written in sorted order, each with i < j (positives come first).
    simple_norms = [norms[rs.index(tuple(int(k == i) for k in range(rank)))] for i in range(rank)]
    root_root: Dict[Tuple[int, int], Dict[int, int]] = {}
    for k, a in enumerate(positives):
        root_root[(rank + k, rank + n_pos + k)] = {
            m: _exact(c * simple_norms[m], norms[k], "coroot coordinates of {}", a)
            for m, c in enumerate(a) if c
        }
    for (i, j), (n, k) in _chevalley_constants(rs, norms).items():
        if i < j:
            root_root[(rank + i, rank + j)] = {rank + k: n}
    for key in sorted(root_root):
        table[key] = root_root[key]
    return table


def _trace_pairs(rows: List[Dict[int, Dict[int, T]]], i: int, j: int) -> Iterator[Tuple[T, T]]:
    """The pairs whose products sum to ``trace(ad e_i . ad e_j) = sum_k sum_l
    [e_j, e_k]_l [e_i, e_l]_k``, read from table rows."""
    row_i = rows[i]
    return (
        (c, row_i[l][k])
        for k, entry in rows[j].items()
        for l, c in entry.items()
        if k in row_i.get(l, _EMPTY)
    )


def build_algebra(rs: RootSystem) -> StructureConstants:
    """Construct the algebra and rescale so ``[e_a, e_{-a}] = -h_a`` for all roots.

    The Chevalley stage stays in integers: ``B(e_a, e_{-a})`` is traced on
    the rows of the ``int`` table, and each rescaled entry is written once,
    as the integer quotient below.
    """
    basis = LieBasis(rs)
    rank, n_pos = rs.rank, rs.n_positive
    chevalley = _chevalley_table(rs, basis)
    rows = _rows(basis.dim, chevalley)
    # e_{-a} -> s e_{-a} with s = -1/B(e_a, e_{-a}) for positive a; every
    # other basis vector keeps s = 1.  With m = 1/s (an integer, -B or 1),
    # [s_i e_i, s_j e_j] = sum_k (s_i s_j c_k / s_k) (s_k e_k), so the entry
    # c_k becomes c_k m_k / (m_i m_j): nonzero, as no factor vanishes.
    m = [1] * basis.dim
    for k in range(n_pos):
        i = rank + k
        j = i + n_pos
        pairing = sum(a * b for a, b in _trace_pairs(rows, i, j))
        if not pairing:
            raise ArithmeticError(f"degenerate pairing B(e_{rs.roots[k]}, e_{rs.roots[k + n_pos]})")
        m[j] = -pairing
    # A few distinct quotients recur across the table: each is built once
    # and shared, as scalars are immutable.
    values: Dict[Tuple[int, int], GaussianRational] = {}
    table: Dict[Tuple[int, int], SparseVec] = {}
    for (i, j), entry in chevalley.items():
        den = m[i] * m[j]
        new_entry: SparseVec = {}
        for k, c in entry.items():
            num = c * m[k]
            value = values.get((num, den))
            if value is None:
                value = values[(num, den)] = (
                    from_triple(num, 0, den) if den > 0 else from_triple(-num, 0, -den)
                )
            new_entry[k] = value
        table[(i, j)] = new_entry
    return StructureConstants(basis, table)


# -- Killing data -------------------------------------------------------------------


class KillingData(Immutable):
    """Killing Gram matrix and the grading element H_rho.

    ``gram[i]`` holds the nonzero entries of Gram row i, and
    ``cartan_inverse`` the sparse rows of the inverse of its r x r Cartan
    block; ``hrho`` is a sparse vector on the Cartan indices.  The dual h_a
    of any root is ``-[e_a, e_{-a}]``, a table entry.
    """

    __slots__ = ("sc", "gram", "cartan_inverse", "hrho")

    def __init__(self, sc: StructureConstants, gram: List[SparseVec],
                 cartan_inverse: List[SparseVec], hrho: SparseVec):
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "cartan_inverse", cartan_inverse)
        object.__setattr__(self, "hrho", hrho)

    def form(self, x: SparseVec, y: SparseVec) -> GaussianRational:
        """``B(x, y) = sum_i x_i B(e_i, y)``, with ``B(e_i, y)`` the combination
        of the Gram rows y selects."""
        by_y = combine(y, self.gram)
        return dot((xi, by_y[i]) for i, xi in x.items() if i in by_y)


def killing(sc: StructureConstants) -> KillingData:
    """Killing form by trace, plus the normalized H_rho = 2 h_rho / B(h_rho, h_rho).

    Every ``[e_i, e_j]`` must lie in weight ``w_i + w_j`` (the h's in weight
    0), or ``ArithmeticError`` names the pair.  Then ``ad e_i . ad e_j`` shifts
    weights by ``w_i + w_j``, so only the (h_i, h_j) and (e_a, e_{-a}) pairs
    are traced; the traces still read the table, so the form stays a self-test.
    """
    basis = sc.basis
    rank = basis.rank
    rs = basis.rs
    n_pos = rs.n_positive
    # A weight as the int sum_m c_m 256^m: the sum of two roots has
    # |c_m| <= 12 < 128, so these ints are equal exactly when the weights are.
    weights = [0] * rank + [sum(c << 8 * m for m, c in enumerate(r)) for r in rs.roots]
    for (i, j), entry in sc.table.items():
        target = weights[i] + weights[j]
        for k in entry:
            if weights[k] != target:
                raise ArithmeticError(
                    f"[{basis.labels[i]}, {basis.labels[j]}] has a component on "
                    f"{basis.labels[k]}, outside weight w_i + w_j"
                )
    gram: List[SparseVec] = [{} for _ in range(sc.dim)]
    pairs = [(i, j) for i in range(rank) for j in range(i, rank)]
    pairs += [(rank + k, rank + n_pos + k) for k in range(n_pos)]
    for i, j in pairs:
        value = dot(_trace_pairs(sc.rows, i, j))
        if value:
            gram[i][j] = gram[j][i] = value
    try:
        cartan_inverse = linalg.inverse(gram[:rank])
    except ValueError:
        raise ArithmeticError("Killing form degenerate on the Cartan subalgebra") from None
    # B(h_rho, h_m) = rho(h_m) = <rho, a_m^v> on the Cartan basis, so h_rho is
    # the combination of inverse rows those pairings select, and
    # B(h_rho, h_rho) = rho(h_rho) is their pairing with h_rho.
    rho_row = [rs.cartan.coroot_pairing(rs.highest, m) for m in range(rank)]
    pairings = {m: GaussianRational(a) for m, a in enumerate(rho_row) if a}
    h_rho = combine(pairings, cartan_inverse)
    norm = dot((c, pairings[k]) for k, c in h_rho.items() if k in pairings)
    factor = GaussianRational(2) / norm
    hrho = {k: factor * c for k, c in h_rho.items()}
    return KillingData(sc, gram, cartan_inverse, hrho)


# -- grading ------------------------------------------------------------------------


class GradedDecomposition(Immutable):
    """Eigenspace split of ad(H_rho) plus the two spans the grading derives.

    ``pieces[i]`` lists the basis indices of ``G_i``.  ``spans["L0"]`` is a
    basis of the centralizer ``ker(ad e_rho)`` and ``spans["G00"]`` one of
    ``L0 intersect G_0``, both as sparse ``{index: value}`` vectors.
    """

    __slots__ = ("sc", "kd", "pieces", "spans")

    def __init__(self, sc: StructureConstants, kd: KillingData,
                 pieces: Dict[int, List[int]], spans: Dict[str, List[SparseVec]]):
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "kd", kd)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "spans", spans)

    def dims(self) -> Tuple[int, int, int, int, int]:
        return tuple(len(self.pieces.get(i, [])) for i in range(-2, 3))  # type: ignore[return-value]


def grade(sc: StructureConstants, kd: KillingData) -> GradedDecomposition:
    """Diagonalize ad(H_rho) over the basis and derive the L0 and G00 spans.

    Eigenvalues are read off the bracket table (the basis is already adapted),
    then validated: integers in {-2..2}, one-dimensional extremes.
    """
    basis = sc.basis
    rs = basis.rs
    n = sc.dim
    pieces: Dict[int, List[int]] = {i: [] for i in range(-2, 3)}
    for idx in range(n):
        image = sc.bracket(kd.hrho, {idx: ONE})
        if basis.root_of(idx) is None:
            if image:
                raise ArithmeticError("ad(H_rho) does not annihilate the Cartan subalgebra")
            pieces[0].append(idx)
            continue
        if any(k != idx for k in image):
            raise ArithmeticError(f"ad(H_rho) not diagonal at basis index {idx}")
        eig = image.get(idx, ZERO)
        value = eig.integer()
        if value is None:
            raise ArithmeticError(f"non-integer ad(H_rho) eigenvalue {eig}")
        if not -2 <= value <= 2:
            raise ArithmeticError(f"eigenvalue {value} outside the contact grading")
        pieces[value].append(idx)
    if len(pieces[2]) != 1 or len(pieces[-2]) != 1:
        raise ArithmeticError("extreme grading pieces must be one-dimensional")
    rho_idx = basis.root_index(rs.highest)
    if pieces[2] != [rho_idx]:
        raise ArithmeticError("G_2 piece is not spanned by e_rho")
    # L0 = ker(ad e_rho), read from the table row of e_rho: column j of
    # ad e_rho is [e_rho, e_j].
    row_rho = sc.rows[rho_idx]
    l0 = linalg.column_kernel([row_rho.get(j, _EMPTY) for j in range(n)])
    # G00 = L0 intersect G_0: the combinations of the L0 basis that vanish on
    # every coordinate outside G_0.
    g0 = set(pieces[0])
    outside = [{k: c for k, c in vec.items() if k not in g0} for vec in l0]
    g00 = [combine(combo, l0) for combo in linalg.column_kernel(outside)]
    return GradedDecomposition(sc, kd, pieces, {"L0": l0, "G00": g00})


def g00_span_check(gd: GradedDecomposition) -> bool:
    """Compare the two computations of G00.

    Kernel route: ``G00 = ker(ad e_rho) intersect G_0``.  Bracket route: the
    span of ``[x, y]`` over ``x in G_{-1}``, ``y in G_{+1}``, intersected with
    the centralizer of ``e_rho``.  (The raw bracket span is all of ``G_0``
    whenever ``G_{+-1}`` is nonzero; its trace inside the centralizer is what
    must reproduce G00.)  The up to ``|G_1|^2`` brackets are first reduced to
    a basis, at most ``dim G_0`` vectors.  A kernel vector ``(x, y)`` of the
    columns ``brackets + (-L0)`` has ``sum x_m brackets[m] = sum y_m L0[m]``,
    so the bracket combinations of the kernel span the intersection.
    """
    pieces = gd.pieces
    rows = gd.sc.rows
    brackets = linalg.sparse_basis(
        rows[i][j] for i in pieces[-1] for j in pieces[1] if j in rows[i]
    )
    count = len(brackets)
    columns = brackets + [{k: -c for k, c in vec.items()} for vec in gd.spans["L0"]]
    meet = [
        combine({m: c for m, c in combo.items() if m < count}, brackets)
        for combo in linalg.column_kernel(columns)
    ]
    return linalg.same_span(meet, gd.spans["G00"])


def chi_differential(kd: KillingData) -> GaussianRational:
    """B([H_rho, e_rho], -e_{-rho}): the infinitesimal character on H_rho; equals 2."""
    sc = kd.sc
    rs = sc.basis.rs
    rho = rs.highest
    image = sc.bracket(kd.hrho, {sc.basis.root_index(rho): ONE})
    return kd.form(image, {sc.basis.root_index(rs.negative(rho)): -ONE})
