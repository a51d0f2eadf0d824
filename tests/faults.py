"""Corrupted inputs for the fault-injection tests.

Each helper breaks exactly one datum of a shipped object while keeping every
structural invariant the constructors check, so the verification suites, not
the constructors, must catch it.
"""

from __future__ import annotations

from contactcheck.contact import ContactChart, hopf_chart
from contactcheck.forms import PolyForm

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
