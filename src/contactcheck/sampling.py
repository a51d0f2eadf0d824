"""Seeded deterministic generators for rational sample data.

One seed fixes every randomized choice in a run.  Rational samples keep
numerators and denominators in [-7, 7] so exact arithmetic stays fast even
after a few multiplications.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .contact import ContactChart, HomogeneousFunction
from .forms import Coeff
from .linalg import add_terms
from .poly import Exponent, MultiPoly, TermMap, from_sum
from .rootsystem import Root, RootSystem
from .scalars import GaussianRational, from_triple

MAX_MAGNITUDE = 7


class SeededSampler:
    """All randomness in the package flows through one of these."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    # -- scalars -----------------------------------------------------------------

    def _ratio(self) -> Tuple[int, int]:
        """One draw: a numerator and a positive denominator."""
        return self._rng.randint(-MAX_MAGNITUDE, MAX_MAGNITUDE), self._rng.randint(1, MAX_MAGNITUDE)

    def fraction(self, nonzero: bool = False) -> GaussianRational:
        """A real scalar p / q, built once from its triple."""
        while True:
            p, q = self._ratio()
            if p or not nonzero:
                return from_triple(p, 0, q)

    def gaussian(self, nonzero: bool = False) -> GaussianRational:
        """A scalar p / q + (r / s) i, built once from its triple over ``q * s``."""
        while True:
            (p, q), (r, s) = self._ratio(), self._ratio()
            if p or r or not nonzero:
                return from_triple(p * s, r * q, q * s)

    # -- chart data --------------------------------------------------------------

    def point(self, cc: ContactChart) -> Dict[str, GaussianRational]:
        """A rational chart point admissible for evaluation (fiber nonzero)."""
        chart = cc.chart
        point = {name: self.gaussian() for name in chart.base_vars}
        if chart.fiber_var is not None:
            point[chart.fiber_var] = self.gaussian(nonzero=True)
        elif all(v.is_zero() for v in point.values()):
            point[chart.base_vars[0]] = self.gaussian(nonzero=True)
        return point

    def integer(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def homogeneous(
        self, cc: ContactChart, ell: int, terms: int = 2, max_base_degree: int = 3
    ) -> HomogeneousFunction:
        """A random homogeneous function of exact degree ``ell`` on the chart.

        The sum of ``terms`` drawn monomials ``c * u^e``, added as they are
        drawn by :func:`~contactcheck.linalg.add_terms`: no product is made.
        """
        for _ in range(50):
            total: TermMap = {}
            add_terms(total, (self._monomial_term(cc, ell, max_base_degree) for _ in range(terms)))
            if total:
                return HomogeneousFunction(cc, from_sum(cc.chart.all_vars, total), ell)
        raise ValueError(f"cannot sample degree {ell} on {cc.label}")

    def monomial(self, cc: ContactChart, ell: int, max_base_degree: int = 3) -> Coeff:
        expo, scalar = self._monomial_term(cc, ell, max_base_degree)
        return MultiPoly(cc.chart.all_vars, {expo: scalar})

    def _monomial_term(
        self, cc: ContactChart, ell: int, max_base_degree: int
    ) -> Tuple[Exponent, GaussianRational]:
        """One draw of a degree-``ell`` monomial ``(e, c)``: its scalar is drawn
        first, then its exponent."""
        chart = cc.chart
        scalar = self.gaussian(nonzero=True)
        if chart.fiber_var is None:
            if ell < 0:
                raise ValueError("global charts carry no negative-degree functions")
            expo = self._composition(ell, len(chart.base_vars))
        else:
            # fibered: weight sits entirely on the fiber exponent
            total = self._rng.randint(0, max_base_degree)
            expo = self._composition(total, len(chart.base_vars)) + [ell]
        return tuple(expo), scalar

    def _composition(self, total: int, slots: int) -> List[int]:
        expo = [0] * slots
        for _ in range(total):
            expo[self._rng.randrange(slots)] += 1
        return expo

    # -- Lie data ----------------------------------------------------------------

    def word(self, rs: RootSystem, length: int) -> List[Tuple[Root, GaussianRational]]:
        return [
            (self._rng.choice(rs.roots), self.fraction(nonzero=True))
            for _ in range(max(1, length))
        ]
