import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from contactcheck.lie import build_algebra, grade, killing
from contactcheck.rootsystem import CARTAN_MATRICES, CartanMatrix, build_root_system
from contactcheck.scalars import GaussianRational


def gq(re=0, im=0) -> GaussianRational:
    """Shorthand for ``GaussianRational(re, im)``."""
    return GaussianRational(re, im)


#: Types the library does not ship, for tests that run past the shipped eight:
#: D4 and F4 exactly as the benchmark injects them, and E6 in Bourbaki order
#: (chain 1-3-4-5-6, node 2 on node 4).
EXTRA_CARTAN = {
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "E6": [
        [2, 0, -1, 0, 0, 0],
        [0, 2, 0, -1, 0, 0],
        [-1, 0, 2, -1, 0, 0],
        [0, -1, -1, 2, -1, 0],
        [0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, -1, 2],
    ],
}

_BUNDLES = {}


@pytest.fixture(scope="session")
def algebra_bundle():
    """Cached (root system, structure constants, killing, grading) per type.

    Takes the shipped type names and those of ``EXTRA_CARTAN``.
    """

    def get(name):
        if name not in _BUNDLES:
            entries = CARTAN_MATRICES.get(name) or EXTRA_CARTAN[name]
            rs = build_root_system(CartanMatrix(entries))
            sc = build_algebra(rs)
            kd = killing(sc)
            gd = grade(sc, kd)
            _BUNDLES[name] = (rs, sc, kd, gd)
        return _BUNDLES[name]

    return get
