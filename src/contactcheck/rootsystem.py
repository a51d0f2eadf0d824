"""Finite root systems generated from Cartan matrices.

Roots are integer coordinate tuples in the simple-root basis.  The Cartan
matrix convention is ``A[i][j] = 2 (a_i, a_j) / (a_j, a_j)``, so the pairing
of a root ``b`` with the j-th simple coroot is ``sum_i b_i A[i][j]``.
Positive roots are the lexicographically positive ones, which for root
coordinate vectors (all entries of one sign) means "all coordinates >= 0".

The production path grows positive roots level by level through root
strings; the reflection-closure method lives in the test suite as an
independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .scalars import GaussianRational

Root = Tuple[int, ...]

#: Built-in Cartan matrices.  B2/C2 and the two rank-3 pairs are transposes,
#: kept separate so short/long simple-root conventions stay explicit.
CARTAN_MATRICES: Dict[str, List[List[int]]] = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "G2": [[2, -1], [-3, 2]],
}


class CartanMatrix:
    """A validated indecomposable Cartan matrix of finite type."""

    __slots__ = ("entries", "rank", "symmetrizer")

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = [list(map(int, row)) for row in entries]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if rows[i][i] != 2:
                raise ValueError(f"diagonal entry A[{i}][{i}] must be 2")
            for j in range(n):
                if i != j and rows[i][j] > 0:
                    raise ValueError(f"off-diagonal entry A[{i}][{j}] must be <= 0")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise ValueError(f"A[{i}][{j}] and A[{j}][{i}] must vanish together")
        object.__setattr__(self, "entries", tuple(tuple(row) for row in rows))
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "symmetrizer", self._symmetrize())
        self._check_positive_definite()

    def __setattr__(self, name, value):
        raise AttributeError("CartanMatrix is immutable")

    def _symmetrize(self) -> Tuple[Fraction, ...]:
        # d[j] plays the role of (a_j, a_j)/2; d[j]*A[i][j] must be symmetric.
        n = self.rank
        d: List[Optional[Fraction]] = [None] * n
        d[0] = Fraction(1)
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and self.entries[i][j] != 0 and d[j] is None:
                    # d_j A[i][j] = d_i A[j][i]
                    d[j] = d[i] * Fraction(self.entries[j][i], self.entries[i][j])
                    stack.append(j)
        if any(v is None for v in d):
            raise ValueError("Cartan matrix is decomposable; a single simple algebra is required")
        scale = min(v for v in d if v is not None)
        return tuple(v / scale for v in d)  # type: ignore[operator]

    def _check_positive_definite(self) -> None:
        sym = [
            {j: GaussianRational(self.symmetrizer[j] * a) for j, a in enumerate(row) if a}
            for row in self.entries
        ]
        # Leading principal minors of the symmetrization must all be positive.
        for k in range(1, self.rank + 1):
            det = linalg.determinant([{j: a for j, a in row.items() if j < k} for row in sym[:k]])
            if det.re <= 0:
                raise ValueError("Cartan matrix is not of finite type")

    def pairing(self, a: Root, b: Root) -> Fraction:
        """Symmetrized bilinear form (a, b) on root-lattice vectors."""
        total = Fraction(0)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    total += ai * bj * self.symmetrizer[j] * self.entries[i][j]
        return total

    def coroot_pairing(self, b: Root, j: int) -> int:
        """Integer pairing <b, a_j^v> = sum_i b_i A[i][j]."""
        return sum(bi * self.entries[i][j] for i, bi in enumerate(b))


class RootSystem:
    """All roots of a finite-type Cartan matrix, positives first."""

    __slots__ = ("cartan", "roots", "n_positive", "highest_index", "_index")

    def __init__(self, cartan: CartanMatrix, positive: List[Root]):
        object.__setattr__(self, "cartan", cartan)
        ordered = sorted(positive, key=lambda r: (sum(r), r))
        roots = ordered + [tuple(-c for c in r) for r in ordered]
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "n_positive", len(ordered))
        object.__setattr__(self, "_index", {r: i for i, r in enumerate(roots)})
        top = max(range(len(ordered)), key=lambda i: (sum(ordered[i]), ordered[i]))
        object.__setattr__(self, "highest_index", top)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable")

    def _validate(self) -> None:
        rho = self.highest
        for alpha in self.positive_roots():
            if any(r - a < 0 for r, a in zip(rho, alpha)):
                raise ValueError(f"{rho} is not the highest root (fails against {alpha})")

    # -- queries ---------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def highest(self) -> Root:
        return self.roots[self.highest_index]

    def positive_roots(self) -> List[Root]:
        return self.roots[: self.n_positive]

    def is_root(self, coords: Root) -> bool:
        return tuple(coords) in self._index

    def index(self, coords: Root) -> int:
        return self._index[tuple(coords)]

    def negative(self, coords: Root) -> Root:
        return tuple(-c for c in coords)

    def pairing(self, a: Root, b: Root) -> Fraction:
        return self.cartan.pairing(a, b)

    def rho_height(self, alpha: Root) -> int:
        """alpha(H_rho) = 2 (alpha, rho) / (rho, rho); always in {-2,...,2}."""
        alpha = tuple(alpha)
        if alpha not in self._index:
            raise ValueError(f"{alpha} is not a root")
        rho = self.highest
        value = 2 * self.pairing(alpha, rho) / self.pairing(rho, rho)
        if value.denominator != 1:
            raise ValueError(f"non-integer height for {alpha}: {value}")
        height = int(value)
        if not -2 <= height <= 2:
            raise ValueError(f"height {height} outside the contact grading range")
        return height

    def string_down_count(self, alpha: Root, beta: Root) -> int:
        """Largest k with beta - k*alpha a root (the 'p' of the alpha-string)."""
        k = 0
        current = tuple(b - a for a, b in zip(alpha, beta))
        while current in self._index:
            k += 1
            current = tuple(c - a for a, c in zip(alpha, current))
        return k

    def to_dict(self) -> dict:
        return {
            "cartan_matrix": [list(row) for row in self.cartan.entries],
            "rank": self.rank,
            "roots": [list(r) for r in self.roots],
            "n_positive": self.n_positive,
            "highest_root_index": self.highest_index,
            "highest_root": list(self.highest),
        }


def build_root_system(cartan: CartanMatrix) -> RootSystem:
    """Generate the positive roots by root strings from the simple roots.

    A root ``b`` extends to ``b + a_i`` exactly when ``p - <b, a_i^v> > 0``
    where ``p`` counts how far the a_i-string descends from ``b``.
    """
    n = cartan.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simple)
    level = list(simple)
    while level:
        next_level: List[Root] = []
        for beta in level:
            for i, alpha in enumerate(simple):
                # Down-strings from a positive root only meet positive roots,
                # all of strictly smaller height, hence already in `known`.
                p = 0
                current = tuple(b - a for b, a in zip(beta, alpha))
                while current in known:
                    p += 1
                    current = tuple(c - a for c, a in zip(current, alpha))
                q = p - cartan.coroot_pairing(beta, i)
                if q > 0:
                    candidate = tuple(b + a for b, a in zip(beta, alpha))
                    if candidate not in known:
                        known.add(candidate)
                        next_level.append(candidate)
        level = next_level
    return RootSystem(cartan, sorted(known))


def builtin_root_system(name: str) -> RootSystem:
    if name not in CARTAN_MATRICES:
        raise KeyError(f"unknown algebra type {name!r}; known: {sorted(CARTAN_MATRICES)}")
    return build_root_system(CartanMatrix(CARTAN_MATRICES[name]))
