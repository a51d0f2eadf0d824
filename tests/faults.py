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
