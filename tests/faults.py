"""Corrupted inputs for the fault-injection tests.

Each helper breaks exactly one datum of a shipped object while keeping every
structural invariant the constructors check, so the verification suites, not
the constructors, must catch it.
"""

from __future__ import annotations

from contactcheck.contact import ContactChart, hopf_chart
from contactcheck.forms import PolyForm
from contactcheck.lie import StructureConstants, build_algebra, grade, killing
from contactcheck.rootsystem import builtin_root_system

BAD_HOPF_LABEL = "bad-hopf"


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
