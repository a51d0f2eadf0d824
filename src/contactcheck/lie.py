"""Simple Lie algebras with exact structure constants and highest-root grading.

The basis is ``h_1 .. h_r`` (simple coroots) followed by one root vector per
root, in root-system order.  Construction happens in two stages:

1. A Chevalley basis: ``[e_a, e_{-a}] = a^v`` (the coroot) and
   ``[e_a, e_b] = N_{a,b} e_{a+b}`` with integer ``N_{a,b} = +-(p+1)``, signs
   fixed by the extraspecial-pair convention.  Constants for non-extraspecial
   pairs follow from the Jacobi identity, processed by increasing root
   height; mixed-sign pairs reduce through the three-root cycle relation
   ``N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)`` for ``a+b+c = 0``.

2. A rescaling ``e_{-a} -> -e_{-a}/B(e_a, e_{-a})`` for positive ``a``, after
   which ``[e_a, e_{-a}] = -h_a`` where ``h_a`` is the Killing-form dual of
   the root ``a`` (``B(h_a, H) = a(H)``).  In particular
   ``B(e_rho, -e_{-rho}) = 1`` for the highest root ``rho``.

The Killing form is always computed as ``trace(ad x . ad y)``, the trace of
two composed brackets read from the sparse table; it is never looked up as a
table entry of its own, so it doubles as a self-test of the construction.
After checking that the table is weight-homogeneous, :func:`killing` traces
only the weight-compatible pairs (``w_i + w_j = 0``); every other trace is 0.
Note that the rescaled constants satisfy ``sign N_{a,b} = sign N_{-a,-b}``
but not the stronger equality ``N_{a,b} = N_{-a,-b}``: that normalization
needs square roots of root norms, which do not exist in Q(i).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .rootsystem import Root, RootSystem
from .scalars import GaussianRational, ONE, ZERO

Vector = List[GaussianRational]
SparseVec = Dict[int, GaussianRational]
Term = Tuple[int, GaussianRational]
Terms = List[Term]

_EMPTY: SparseVec = {}


def _terms(vec: Sequence[GaussianRational]) -> Terms:
    """The ``(index, value)`` pairs of a vector's nonzero entries."""
    return [(k, c) for k, c in enumerate(vec) if not c.is_zero()]


def _add_into(out: SparseVec, f: GaussianRational, terms: Iterable[Term]) -> None:
    """``out += f * terms``, dropping entries that cancel to zero."""
    for k, c in terms:
        acc = out[k] + f * c if k in out else f * c
        if acc.is_zero():
            out.pop(k, None)
        else:
            out[k] = acc


class LieBasis:
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

    def __setattr__(self, name, value):
        raise AttributeError("LieBasis is immutable")

    def root_index(self, root: Root) -> int:
        """Basis index of e_root."""
        return self.rank + self.rs.index(root)

    def root_of(self, index: int) -> Optional[Root]:
        if index < self.rank:
            return None
        return self.rs.roots[index - self.rank]


def _root_label(root: Root) -> str:
    return "e[" + ",".join(str(c) for c in root) + "]"


class StructureConstants:
    """Sparse antisymmetric bracket table over a LieBasis.

    ``table`` holds one orientation of each nonzero ``[e_i, e_j]``; ``rows[i][j]``
    holds ``[e_i, e_j]`` in both orientations, built once here.  The dicts in
    ``rows`` and those ``bracket_basis`` returns are shared: read-only.
    """

    __slots__ = ("basis", "table", "rows")

    def __init__(self, basis: LieBasis, table: Dict[Tuple[int, int], SparseVec]):
        rows: List[Dict[int, SparseVec]] = [{} for _ in range(basis.dim)]
        for (i, j), entry in table.items():
            rows[i][j] = entry
            rows[j][i] = {k: -c for k, c in entry.items()}
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("StructureConstants is immutable")

    @property
    def dim(self) -> int:
        return self.basis.dim

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        return self.rows[i].get(j, _EMPTY)

    def unit_bracket(self, i: int, j: int) -> Vector:
        """``[e_i, e_j]`` as a dense vector, read from the table."""
        entry = self.bracket_basis(i, j)
        return [entry.get(k, ZERO) for k in range(self.dim)]

    def bracket(self, x: Sequence[GaussianRational], y: Sequence[GaussianRational]) -> Vector:
        out = self._bracket_terms(_terms(x), _terms(y))
        return [out.get(k, ZERO) for k in range(self.dim)]

    def _bracket_terms(self, xs: Terms, ys: Terms) -> SparseVec:
        """``[x, y]`` from the nonzero ``(index, value)`` terms of x and y."""
        out: SparseVec = {}
        for i, xi in xs:
            row = self.rows[i]
            for j, yj in ys:
                if j in row:
                    _add_into(out, xi * yj, row[j].items())
        return out

    def ad_matrix(self, x: Sequence[GaussianRational]) -> List[Vector]:
        """Matrix of ad(x) acting on basis-coordinate column vectors."""
        n = self.dim
        cols: List[Vector] = []
        for j in range(n):
            unit = [ONE if k == j else ZERO for k in range(n)]
            cols.append(self.bracket(x, unit))
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def unit(self, index: int) -> Vector:
        return [ONE if k == index else ZERO for k in range(self.dim)]


# -- Chevalley constants ----------------------------------------------------------


def _coroot_coordinates(rs: RootSystem, alpha: Root, norms: Dict[Root, Fraction]) -> List[int]:
    """Coordinates of alpha^v in the simple coroots; integral for root systems."""
    coords = []
    for i in range(rs.rank):
        simple = tuple(1 if j == i else 0 for j in range(rs.rank))
        value = Fraction(alpha[i]) * norms[simple] / norms[alpha]
        if value.denominator != 1:
            raise ValueError(f"non-integral coroot coordinate for {alpha}")
        coords.append(int(value))
    return coords


class _ChevalleyTable:
    """Integer constants N_{a,b} for positive pairs, extended on demand."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        #: The root norms (r, r), computed once.
        self.norms: Dict[Root, Fraction] = {r: rs.pairing(r, r) for r in rs.roots}
        self.pos: Dict[Tuple[Root, Root], Fraction] = {}
        positives = rs.positive_roots()
        order = {r: i for i, r in enumerate(positives)}
        for gamma in positives:
            if sum(gamma) == 1:
                continue
            # Extraspecial pair: minimal first component in root order.
            pairs = []
            for alpha in positives:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if beta in order and order[alpha] < order[beta]:
                    pairs.append((alpha, beta))
            pairs.sort(key=lambda ab: order[ab[0]])
            extra_alpha, extra_beta = pairs[0]
            p = rs.string_down_count(extra_alpha, extra_beta)
            self.pos[(extra_alpha, extra_beta)] = Fraction(p + 1)
            for alpha, beta in pairs[1:]:
                self.pos[(alpha, beta)] = self._special(alpha, beta, extra_alpha, extra_beta)

    def _special(self, alpha: Root, beta: Root, eps: Root, eta: Root) -> Fraction:
        # Jacobi identity on (e_{-eps}, e_alpha, e_beta); all three brackets land
        # on e_{gamma - eps} = e_eta, and the other pairs sum to roots of smaller
        # height, so their constants are already available.
        rs = self.rs
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        neg_eps = tuple(-c for c in eps)
        lead = self.value(neg_eps, gamma)
        if lead == 0:
            raise ArithmeticError("extraspecial pair produced a vanishing leading constant")
        total = Fraction(0)
        beta_minus = tuple(b - c for b, c in zip(beta, eps))
        if rs.is_root(beta_minus):
            total += self.value(beta, neg_eps) * self.value(alpha, beta_minus)
        alpha_minus = tuple(a - c for a, c in zip(alpha, eps))
        if rs.is_root(alpha_minus):
            total += self.value(neg_eps, alpha) * self.value(beta, alpha_minus)
        return -total / lead

    def value(self, a: Root, b: Root) -> Fraction:
        """N_{a,b} for arbitrary roots a, b with a+b a root."""
        rs = self.rs
        s = tuple(x + y for x, y in zip(a, b))
        if not rs.is_root(s):
            return Fraction(0)
        a_pos = all(c >= 0 for c in a)
        b_pos = all(c >= 0 for c in b)
        if a_pos and b_pos:
            if (a, b) in self.pos:
                return self.pos[(a, b)]
            if (b, a) in self.pos:
                return -self.pos[(b, a)]
            raise KeyError(f"positive pair {a}, {b} not yet computed")
        if not a_pos and not b_pos:
            return -self.value(tuple(-c for c in a), tuple(-c for c in b))
        if not a_pos:
            return -self.value(b, a)
        # a positive, b negative; use the cycle relation with c = -(a+b).
        if all(c >= 0 for c in s):
            # N_{a,b} = -((s,s)/(a,a)) N_{-b, s}
            return -(self.norms[s] / self.norms[a]) * self.value(tuple(-c for c in b), s)
        # N_{a,b} = ((c,c)/(b,b)) N_{c,a} with c = -s positive
        c = tuple(-x for x in s)
        return (self.norms[c] / self.norms[b]) * self.value(c, a)


def chevalley_constants(rs: RootSystem) -> _ChevalleyTable:
    """The raw integer Chevalley table (exposed for the test oracles)."""
    return _ChevalleyTable(rs)


# -- algebra construction ----------------------------------------------------------


def _chevalley_table(rs: RootSystem, basis: LieBasis) -> Dict[Tuple[int, int], SparseVec]:
    rank = rs.rank
    nconst = _ChevalleyTable(rs)
    table: Dict[Tuple[int, int], SparseVec] = {}
    # [h_i, e_b] = <b, a_i^v> e_b
    for i in range(rank):
        for b in rs.roots:
            pairing = rs.cartan.coroot_pairing(b, i)
            if pairing:
                table[(i, basis.root_index(b))] = {basis.root_index(b): GaussianRational(pairing)}
    # root-root brackets
    for idx_a, a in enumerate(rs.roots):
        for idx_b in range(idx_a + 1, len(rs.roots)):
            b = rs.roots[idx_b]
            i, j = basis.root_index(a), basis.root_index(b)
            s = tuple(x + y for x, y in zip(a, b))
            if not any(s):
                coro = _coroot_coordinates(rs, a, nconst.norms)
                entry = {k: GaussianRational(c) for k, c in enumerate(coro) if c}
                if entry:
                    table[(i, j)] = entry
                continue
            if rs.is_root(s):
                n = nconst.value(a, b)
                if n:
                    table[(i, j)] = {basis.root_index(s): GaussianRational(n)}
    return table


def _trace_form(sc: StructureConstants, i: int, j: int) -> GaussianRational:
    """``trace(ad e_i . ad e_j) = sum_k sum_l [e_j, e_k]_l [e_i, e_l]_k`` from the table."""
    total = ZERO
    row_i = sc.rows[i]
    for k, entry in sc.rows[j].items():
        for l, c in entry.items():
            d = row_i.get(l, _EMPTY).get(k)
            if d is not None:
                total = total + c * d
    return total


def build_algebra(rs: RootSystem) -> StructureConstants:
    """Construct the algebra and rescale so ``[e_a, e_{-a}] = -h_a`` for all roots."""
    basis = LieBasis(rs)
    chevalley = StructureConstants(basis, _chevalley_table(rs, basis))
    # Scale factors: 1 on h_i and positive root vectors, -1/B(e_a, e_{-a}) on
    # negative ones.  B is computed by trace on the Chevalley table.
    scale: List[GaussianRational] = [ONE] * basis.dim
    for a in rs.positive_roots():
        i = basis.root_index(a)
        j = basis.root_index(rs.negative(a))
        k = _trace_form(chevalley, i, j)
        if k.is_zero():
            raise ArithmeticError(f"degenerate pairing B(e_{a}, e_{-a})")
        scale[j] = -k.inverse()
    table: Dict[Tuple[int, int], SparseVec] = {}
    for (i, j), entry in chevalley.table.items():
        factor = scale[i] * scale[j]
        new_entry: SparseVec = {}
        for k, c in entry.items():
            value = factor * c / scale[k]
            if not value.is_zero():
                new_entry[k] = value
        if new_entry:
            table[(i, j)] = new_entry
    return StructureConstants(basis, table)


# -- Killing data -------------------------------------------------------------------


class KillingData:
    """Killing Gram matrix, root duals h_a, and the grading element H_rho.

    ``gram_rows[i]`` holds the nonzero entries of Gram row i, built once.
    """

    __slots__ = ("sc", "gram", "gram_rows", "coroots", "hrho")

    def __init__(self, sc: StructureConstants, gram: List[Vector],
                 coroots: Dict[Root, Vector], hrho: Vector):
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "gram_rows", [dict(_terms(row)) for row in gram])
        object.__setattr__(self, "coroots", coroots)
        object.__setattr__(self, "hrho", hrho)

    def __setattr__(self, name, value):
        raise AttributeError("KillingData is immutable")

    def form(self, x: Sequence[GaussianRational], y: Sequence[GaussianRational]) -> GaussianRational:
        return self._form_terms(_terms(x), y)

    def _form_terms(self, xs: Terms, y: Sequence[GaussianRational]) -> GaussianRational:
        """``B(x, y)`` from the nonzero ``(index, value)`` terms of x."""
        total = ZERO
        for i, xi in xs:
            for j, g in self.gram_rows[i].items():
                yj = y[j]
                if not yj.is_zero():
                    total = total + xi * yj * g
        return total


def killing(sc: StructureConstants) -> KillingData:
    """Killing form by trace, plus h_a for every root and the normalized H_rho.

    Every ``[e_i, e_j]`` must lie in weight ``w_i + w_j`` (the h's in weight
    0), or ``ArithmeticError`` names the pair.  Then ``ad e_i . ad e_j`` shifts
    weights by ``w_i + w_j``, so only the (h_i, h_j) and (e_a, e_{-a}) pairs
    are traced; the traces still read the table, so the form stays a self-test.
    """
    basis = sc.basis
    n = sc.dim
    rank = basis.rank
    rs = basis.rs
    weights: List[Root] = [(0,) * rank] * rank + list(rs.roots)
    for (i, j), entry in sc.table.items():
        target = tuple(a + b for a, b in zip(weights[i], weights[j]))
        for k in entry:
            if weights[k] != target:
                raise ArithmeticError(
                    f"[{basis.labels[i]}, {basis.labels[j]}] has a component on "
                    f"{basis.labels[k]}, outside weight w_i + w_j"
                )
    gram: List[Vector] = [[ZERO] * n for _ in range(n)]
    pairs = [(i, j) for i in range(rank) for j in range(i, rank)]
    pairs += [(basis.root_index(a), basis.root_index(rs.negative(a))) for a in rs.positive_roots()]
    for i, j in pairs:
        gram[i][j] = gram[j][i] = _trace_form(sc, i, j)
    cartan_gram = [[gram[i][j] for j in range(rank)] for i in range(rank)]
    try:
        cartan_inverse = linalg.invert(cartan_gram)
    except ValueError:
        raise ArithmeticError("Killing form degenerate on the Cartan subalgebra") from None
    coroots: Dict[Root, Vector] = {}
    for root in rs.roots:
        rhs = [GaussianRational(rs.cartan.coroot_pairing(root, i)) for i in range(rank)]
        coroots[root] = linalg.mat_vec(cartan_inverse, rhs) + [ZERO] * (n - rank)
    rho = rs.highest
    h_rho = coroots[rho]
    norm = ZERO
    for i in range(rank):
        for j in range(rank):
            norm = norm + h_rho[i] * h_rho[j] * gram[i][j]
    factor = GaussianRational(2) / norm
    hrho = [factor * c for c in h_rho]
    return KillingData(sc, gram, coroots, hrho)


def root_action(kd: KillingData, root: Root, h: Sequence[GaussianRational]) -> GaussianRational:
    """The value root(h) for h in the Cartan span, via B(h_root, h)."""
    return kd.form(kd.coroots[root], h)


# -- grading ------------------------------------------------------------------------


class GradedDecomposition:
    """Eigenspace split of ad(H_rho) plus the derived subalgebra spans."""

    __slots__ = ("sc", "kd", "pieces", "spans")

    def __init__(self, sc: StructureConstants, kd: KillingData,
                 pieces: Dict[int, List[int]], spans: Dict[str, List[Vector]]):
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "kd", kd)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "spans", spans)

    def __setattr__(self, name, value):
        raise AttributeError("GradedDecomposition is immutable")

    def dims(self) -> Tuple[int, int, int, int, int]:
        return tuple(len(self.pieces.get(i, [])) for i in range(-2, 3))  # type: ignore[return-value]


def grade(sc: StructureConstants, kd: KillingData) -> GradedDecomposition:
    """Diagonalize ad(H_rho) over the basis and assemble the subalgebra lattice.

    Eigenvalues are read off the bracket table (the basis is already adapted),
    then validated: integers in {-2..2}, one-dimensional extremes.
    """
    basis = sc.basis
    rs = basis.rs
    n = sc.dim
    pieces: Dict[int, List[int]] = {i: [] for i in range(-2, 3)}
    hrho = _terms(kd.hrho)
    for idx in range(n):
        image = sc._bracket_terms(hrho, [(idx, ONE)])
        if basis.root_of(idx) is None:
            if image:
                raise ArithmeticError("ad(H_rho) does not annihilate the Cartan subalgebra")
            pieces[0].append(idx)
            continue
        if any(k != idx for k in image):
            raise ArithmeticError(f"ad(H_rho) not diagonal at basis index {idx}")
        eig = image.get(idx, ZERO)
        if not eig.is_real() or eig.re.denominator != 1:
            raise ArithmeticError(f"non-integer ad(H_rho) eigenvalue {eig}")
        value = int(eig.re)
        if not -2 <= value <= 2:
            raise ArithmeticError(f"eigenvalue {value} outside the contact grading")
        pieces[value].append(idx)
    if len(pieces[2]) != 1 or len(pieces[-2]) != 1:
        raise ArithmeticError("extreme grading pieces must be one-dimensional")
    rho_idx = basis.root_index(rs.highest)
    if pieces[2] != [rho_idx]:
        raise ArithmeticError("G_2 piece is not spanned by e_rho")

    def units(indices: List[int]) -> List[Vector]:
        return [sc.unit(i) for i in indices]

    l_span = units(pieces[0] + pieces[1] + pieces[2])
    gminus_span = units(pieces[-2] + pieces[-1])
    n_span = gminus_span + [list(kd.hrho)]
    # L0 = ker(ad e_rho); G00 = that kernel inside G_0.
    ad_rho = sc.ad_matrix(sc.unit(rho_idx))
    l0_span = linalg.nullspace(ad_rho)
    g0_basis = units(pieces[0])
    g00_span = linalg.intersect_spans(g0_basis, l0_span)
    spans = {
        "L": l_span,
        "L0": l0_span,
        "G00": g00_span,
        "Gminus": gminus_span,
        "N": n_span,
    }
    return GradedDecomposition(sc, kd, pieces, spans)


def g00_span_check(gd: GradedDecomposition, sc: StructureConstants) -> bool:
    """Compare the two computations of G00.

    Kernel route: ``G00 = ker(ad e_rho) intersect G_0``.  Bracket route: the
    span of ``[x, y]`` over ``x in G_{-1}``, ``y in G_{+1}``, intersected with
    the centralizer of ``e_rho``.  (The raw bracket span is all of ``G_0``
    whenever ``G_{+-1}`` is nonzero; its trace inside the centralizer is what
    must reproduce G00.)
    """
    pieces = gd.pieces
    brackets = [
        sc.unit_bracket(i, j) for i in pieces[-1] for j in pieces[1] if sc.bracket_basis(i, j)
    ]
    bracket_g00 = linalg.intersect_spans(brackets, gd.spans["L0"]) if brackets else []
    return linalg.same_span(bracket_g00, gd.spans["G00"])


def chi_differential(kd: KillingData, sc: StructureConstants) -> GaussianRational:
    """B([H_rho, e_rho], -e_{-rho}): the infinitesimal character on H_rho; equals 2."""
    rs = sc.basis.rs
    rho = rs.highest
    e_rho = sc.unit(sc.basis.root_index(rho))
    e_neg = sc.unit(sc.basis.root_index(rs.negative(rho)))
    image = sc.bracket(kd.hrho, e_rho)
    return kd.form(image, [-c for c in e_neg])
