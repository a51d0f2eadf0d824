"""From a chart upstairs to contact forms downstairs, with transition data.

Pulling theta back along the affine sections of projective space produces
one contact form per chart; any two sections differ by a gauge g, the chart
forms differ by g^delta, and the top forms gamma ^ (d gamma)^n transform by
the (n+1)-st power of that factor times the coordinate-change Jacobian --
an exact identity of Laurent polynomials on every overlap.
"""

from contactcheck.contact import (
    canonical_cocycle_check,
    hopf_chart,
    hopf_sections,
    reconstruct_cstructure,
)

print("== the projective line from the two sections of C^2 minus 0")
line = reconstruct_cstructure(hopf_chart(0), hopf_sections(0))
print(f"   gamma_0 = {line.gammas[0]},  gamma_1 = {line.gammas[1]}")
print(f"   f_01 = {line.factors[(0, 1)]}   (the canonical-bundle cocycle, n = 0)")
for result in canonical_cocycle_check(line, 0):
    print(f"   {result.status:4s}  {result.check_id}")

print()
print("== projective 3-space carrying the quadratic-model structure")
cc = hopf_chart(1)
cs = reconstruct_cstructure(cc, hopf_sections(1))
print(f"   gamma_0 = {cs.gammas[0]}")
print(f"   gauge g_01 = {cs.gauges[(0, 1)]},  factor f_01 = g^2 = {cs.factors[(0, 1)]}")
results = canonical_cocycle_check(cs, 1)
print(f"   cocycle identity on {len(results)} ordered overlaps:", end=" ")
print("all pass" if all(r.status == "pass" for r in results) else "FAILURES")
