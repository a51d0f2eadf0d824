"""Exact-arithmetic verification of contact bundles, graded Lie algebras and moment maps.

Everything in this package computes over the Gaussian rationals: a scalar is
``(a + b*i) / d`` stored as three ints in lowest terms, its parts read out as
``fractions.Fraction``; polynomials are sparse exponent dictionaries, and
every verification is an exact identity check (equality of canonical forms),
never a floating-point comparison.

All value types are immutable after construction and all operations are
pure, so readers may share objects across threads freely.  One guard keeps
that: every value type derives from :class:`contactcheck.scalars.Immutable`,
which refuses both setting and deleting an attribute.  The only internal
caches (a chart's solver columns and solved Euler field, and the CLI's
argument parser, built on the first ``main`` call of a process) are
idempotent, making their benign race harmless.

Subpackage map:

* :mod:`contactcheck.scalars`, :mod:`contactcheck.poly` -- scalar and
  polynomial arithmetic kernels: Q(i) and the multivariate Laurent ring
  Q(i)[u^±1] (polynomials are its elements with no negative exponent), the
  one coefficient ring of chart coefficients, transitions and cocycles.
* :mod:`contactcheck.linalg` -- exact linear algebra on sparse rows: one
  elimination loop for ranks, spans, kernels, inverses and Q(i)
  determinants (the signed product of its pivots), with a pivot rule for
  rings, so that only units divide (the chart ring's in the dtheta solve).
* :mod:`contactcheck.rootsystem` -- finite root systems from Cartan matrices.
* :mod:`contactcheck.lie` -- structure constants, Killing form, highest-root
  grading of the simple Lie algebras.
* :mod:`contactcheck.forms` -- polynomial exterior calculus on a chart, the
  rules of the chart ring Q(i)[base][fiber^±1] on ``ChartSpace``, and the one
  pullback, ``ChartMap.pull``, along sections and Laurent chart transitions.
* :mod:`contactcheck.contact` -- contact charts, Euler operator, Hamiltonian
  vector fields and the identity suites built on them; c-structures from
  sections, with (C.2) factors and canonical cocycles read off pullbacks.
* :mod:`contactcheck.orbits` -- unipotent orbits through the highest root
  vector, moment maps, embedding rank checks.
* :mod:`contactcheck.sampling` -- seeded generators of sample points,
  homogeneous functions and unipotent words.
* :mod:`contactcheck.report` -- check results and the deterministic JSON
  report.
* :mod:`contactcheck.cli` -- the ``contactcheck`` command line front end.
"""

__version__ = "0.1.0"
