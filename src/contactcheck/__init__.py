"""Exact-arithmetic verification of contact bundles, graded Lie algebras and moment maps.

Everything in this package computes over the Gaussian rationals: scalars are
pairs of ``fractions.Fraction``, polynomials are sparse exponent dictionaries,
and every verification is an exact identity check (equality of canonical
forms), never a floating-point comparison.

All value types are immutable after construction and all operations are
pure, so readers may share objects across threads freely; the only internal
caches (a chart's solver columns and solved Euler field) are idempotent,
making their benign race harmless.

Subpackage map:

* :mod:`contactcheck.scalars`, :mod:`contactcheck.poly` -- scalar and
  polynomial arithmetic kernels: Q(i) and the multivariate Laurent ring
  Q(i)[u^±1] (polynomials are its elements with no negative exponent), the
  one coefficient ring of chart coefficients, transitions and cocycles.
* :mod:`contactcheck.linalg` -- exact linear algebra on sparse rows: one
  elimination loop for ranks, spans, kernels and inverses, with a pivot rule
  for rings (the chart ring's units in the dtheta solve), and the Bareiss
  ring determinant.
* :mod:`contactcheck.rootsystem` -- finite root systems from Cartan matrices.
* :mod:`contactcheck.lie` -- structure constants, Killing form, highest-root
  grading of the simple Lie algebras.
* :mod:`contactcheck.forms` -- polynomial exterior calculus on a chart, and
  the rules of the chart ring Q(i)[base][fiber^±1] on ``ChartSpace``.
* :mod:`contactcheck.contact` -- contact charts, Euler operator, Hamiltonian
  vector fields and the identity suites built on them.
* :mod:`contactcheck.orbits` -- unipotent orbits through the highest root
  vector, moment maps, embedding rank checks.
* :mod:`contactcheck.sampling` -- seeded generators of sample points,
  homogeneous functions and unipotent words.
* :mod:`contactcheck.report` -- check results and the deterministic JSON
  report.
* :mod:`contactcheck.cli` -- the ``contactcheck`` command line front end.
"""

__version__ = "0.1.0"
