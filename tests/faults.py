"""Corrupted inputs for the fault-injection tests.

Each helper breaks exactly one datum of a shipped object while keeping every
structural invariant the constructors check, so the verification suites, not
the constructors, must catch it.
"""

from __future__ import annotations

from contactcheck.contact import ContactChart, fibered_chart, hopf_chart
from contactcheck.forms import PolyForm
from contactcheck.lie import StructureConstants, build_algebra, grade, killing
from contactcheck.rootsystem import builtin_root_system

BAD_HOPF_LABEL = "bad-hopf"
BAD_FIBERED_LABEL = "bad-fibered"


def corrupted_hopf_chart(n: int = 1) -> ContactChart:
    """hopf(n) with the coefficient z0 of dz_{n+1} doubled.

    The form stays weight-homogeneous of degree 2, so the chart is accepted,
    but theta no longer kills the scaling generator.
    """
    good = hopf_chart(n)
    chart = good.chart
    slot = (chart.var_index(f"z{n + 1}"),)
    terms = dict(good.theta.terms)
    terms[slot] = terms[slot].scale(2)
    return ContactChart(
        chart, PolyForm(chart, 1, terms), good.delta, good.weights, label=BAD_HOPF_LABEL
    )


def exact_shifted_hopf_chart(n: int = 1) -> ContactChart:
    """hopf(n) with theta shifted by the exact form d(z0 z1) = z1 dz0 + z0 dz1.

    d(theta) is unchanged and the shift has weight 2, so the chart is
    accepted, but the forms pulled back along the sections change: the
    ``ChartMap`` values ``hopf_sections(n)["V0"]``, ``["V1"]``, ....  On
    hopf(0) theta becomes 2 z0 dz1, which vanishes along V1, so V1 alone
    breaks (C.1) and beside V0 breaks (C.2) on the pair (V0, V1) first; on
    larger n the pullbacks are no longer related by the section gauges,
    which breaks (C.2) on the pair (V0, V1).
    """
    good = hopf_chart(n)
    chart = good.chart
    z0, z1 = chart.coeff_var("z0"), chart.coeff_var("z1")
    shift = PolyForm.d_var(chart, "z0").scale(z1) + PolyForm.d_var(chart, "z1").scale(z0)
    return ContactChart(chart, good.theta + shift, good.delta, good.weights, label=good.label)


def corrupted_fibered_chart(n: int = 1, delta: int = 3) -> ContactChart:
    """fibered(n, delta) with the coefficient of dlam, 0 on the good chart, set
    to ``lam^(delta-1) * z0``.

    Doubling a coefficient, as :func:`corrupted_hopf_chart` does, would only
    rescale a coordinate here and break nothing.  The new term keeps theta
    weight-homogeneous of degree delta, so the chart is accepted, but theta
    no longer kills the scaling generator ``lam d/dlam``.
    """
    good = fibered_chart(n, delta)
    chart = good.chart
    terms = dict(good.theta.terms)
    terms[(chart.var_index("lam"),)] = (
        good.theta.terms[(0,)] * chart.coeff_var("z0") / chart.coeff_var("lam")
    )
    return ContactChart(
        chart, PolyForm(chart, 1, terms), good.delta, good.weights, label=BAD_FIBERED_LABEL
    )


def doubled_constant(sc: StructureConstants) -> StructureConstants:
    """``sc`` with its first root-root bracket (in table order) doubled.

    The entry stays on its weight, so :func:`~contactcheck.lie.killing` and
    :func:`~contactcheck.lie.grade` accept the table.
    """
    key = next(k for k in sc.table if min(k) >= sc.basis.rank)
    table = dict(sc.table)
    table[key] = {k: c + c for k, c in table[key].items()}
    return StructureConstants(sc.basis, table)


def corrupted_algebra_bundle(type_name: str):
    """``cli._algebra_bundle`` on the table of :func:`doubled_constant`."""
    rs = builtin_root_system(type_name)
    sc = doubled_constant(build_algebra(rs))
    kd = killing(sc)
    return rs, sc, kd, grade(sc, kd)
