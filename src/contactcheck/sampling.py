"""Seeded deterministic generators for rational sample data.

One seed fixes every randomized choice in a run.  Rational samples keep
numerators and denominators in [-7, 7] so exact arithmetic stays fast even
after a few multiplications.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .contact import ContactChart, HomogeneousFunction
from .forms import Coeff
from .poly import MultiPoly
from .rootsystem import Root, RootSystem
from .scalars import GaussianRational

MAX_MAGNITUDE = 7


class SeededSampler:
    """All randomness in the package flows through one of these."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    # -- scalars -----------------------------------------------------------------

    def fraction(self, nonzero: bool = False) -> Fraction:
        while True:
            p = self._rng.randint(-MAX_MAGNITUDE, MAX_MAGNITUDE)
            q = self._rng.randint(1, MAX_MAGNITUDE)
            value = Fraction(p, q)
            if value or not nonzero:
                return value

    def gaussian(self, nonzero: bool = False) -> GaussianRational:
        while True:
            value = GaussianRational(self.fraction(), self.fraction())
            if not value.is_zero() or not nonzero:
                return value

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
        """A random homogeneous function of exact degree ``ell`` on the chart."""
        chart = cc.chart
        coeff = chart.coeff_zero()
        attempts = 0
        while coeff.is_zero():
            attempts += 1
            if attempts > 50:
                raise ValueError(f"cannot sample degree {ell} on {cc.label}")
            acc = chart.coeff_zero()
            for _ in range(terms):
                acc = acc + self.monomial(cc, ell, max_base_degree)
            coeff = acc
        return HomogeneousFunction(cc, coeff, ell)

    def monomial(self, cc: ContactChart, ell: int, max_base_degree: int = 3) -> Coeff:
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
        return MultiPoly(chart.all_vars, {tuple(expo): scalar})

    def _composition(self, total: int, slots: int) -> List[int]:
        expo = [0] * slots
        for _ in range(total):
            expo[self._rng.randrange(slots)] += 1
        return expo

    # -- Lie data ----------------------------------------------------------------

    def word(self, rs: RootSystem, length: int) -> List[Tuple[Root, Fraction]]:
        return [
            (self._rng.choice(rs.roots), self.fraction(nonzero=True))
            for _ in range(max(1, length))
        ]

    def choice(self, seq: Sequence):
        return self._rng.choice(seq)
