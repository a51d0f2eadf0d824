"""The value types: every one refuses attribute writes and deletes, and the
polynomial types are unhashable while charts and scalars hash by value."""

from fractions import Fraction

import pytest

from contactcheck.contact import (
    CStructureData,
    ContactChart,
    HomogeneousFunction,
    euler_field,
    hopf_chart,
    hopf_sections,
    reconstruct_cstructure,
)
from contactcheck.forms import ChartMap, ChartSpace, PolyForm, PolyVectorField
from contactcheck.lie import (
    GradedDecomposition,
    KillingData,
    LieBasis,
    StructureConstants,
    build_algebra,
    grade,
    killing,
)
from contactcheck.orbits import AlgebraAutomorphism, OrbitPoint, exp_ad, orbit_sample
from contactcheck.poly import MultiPoly
from contactcheck.rootsystem import CartanMatrix, RootSystem, builtin_root_system
from contactcheck.scalars import GaussianRational, Immutable


def _instances():
    """One instance of each value type, built afresh on hopf(1) and on A2, so
    that a guard that lets a write through damages no object another test shares."""
    rs = builtin_root_system("A2")
    sc = build_algebra(rs)
    kd = killing(sc)
    gd = grade(sc, kd)
    cc = hopf_chart(1)
    root = rs.roots[0]
    cs = reconstruct_cstructure(cc, hopf_sections(1))
    built = [
        cc, HomogeneousFunction(cc, cc.chart.coeff_zero(), 0), cs,
        cc.chart, cs.transition_maps[(0, 1)], cc.theta, euler_field(cc),
        sc.basis, sc, kd, gd,
        exp_ad(sc, root, 1), orbit_sample(sc, [(root, 1)]),
        cc.chart.coeff_const(2),
        rs.cartan, rs,
        GaussianRational(Fraction(1, 2), 3),
    ]
    return {type(value): value for value in built}


VALUE_TYPES = [
    ContactChart, HomogeneousFunction, CStructureData,
    ChartSpace, ChartMap, PolyForm, PolyVectorField,
    LieBasis, StructureConstants, KillingData, GradedDecomposition,
    AlgebraAutomorphism, OrbitPoint,
    MultiPoly,
    CartanMatrix, RootSystem,
    GaussianRational,
]


def test_every_value_type_is_listed():
    assert set(Immutable.__subclasses__()) == set(VALUE_TYPES)


@pytest.mark.parametrize("kind", VALUE_TYPES, ids=lambda kind: kind.__name__)
def test_no_value_type_can_be_set_or_deleted(kind):
    value = _instances()[kind]
    message = f"{kind.__name__} is immutable"
    for name in (*kind.__slots__, "other"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert all(hasattr(value, name) for name in kind.__slots__ if not name.startswith("_"))


def test_every_slot_is_set_when_construction_ends():
    """No value type fills a slot lazily: the package's only caches are a
    chart's solver columns and Euler field, whose slots start as ``None``."""
    unset = [
        f"{kind.__name__}.{name}"
        for kind, value in _instances().items()
        for name in kind.__slots__
        if not hasattr(value, name)
    ]
    assert unset == []


@pytest.mark.parametrize("kind", [MultiPoly, PolyForm, PolyVectorField], ids=lambda kind: kind.__name__)
def test_the_polynomial_types_are_unhashable(kind):
    with pytest.raises(TypeError, match=f"unhashable type: '{kind.__name__}'"):
        hash(_instances()[kind])


def test_charts_and_scalars_hash_by_value():
    assert hash(ChartSpace(["x", "y"], "u")) == hash(ChartSpace(("x", "y"), "u"))
    z = GaussianRational(Fraction(2, 4), -3)
    assert hash(z) == hash(GaussianRational(Fraction(1, 2), -3)) == hash(z * 1)
    assert {ChartSpace(["x"]): 1, z: 2}[GaussianRational(Fraction(1, 2), -3)] == 2
