"""Retired: a chart coefficient is a :class:`contactcheck.poly.MultiPoly` in the
chart ring, whose rules live on :class:`contactcheck.forms.ChartSpace`.

This module defines nothing.  It stays only while the benchmark's tracer
still lists it among the modules it spans; it is deleted together with that
entry and the ``laurent.*`` per-layer metrics.
"""
