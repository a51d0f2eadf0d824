"""Retired: the Laurent ring Q(i)[u^±1] is :class:`contactcheck.poly.MultiPoly`.

This module defines nothing.  It stays only while the benchmark's tracer
still lists it among the modules it spans; it is deleted together with that
entry and the ``ratfunc.*`` per-layer metrics.
"""
