"""Orbit sampling, the degree-one moment pairing, and embedding ranks.

Orbit points are reached from e_rho by words of nilpotent exponentials with
rational parameters; each point stores its word as the membership
certificate.  The moment vector of a point lists its Killing pairings with
the basis, and inverting the Gram matrix recovers the point exactly -- the
cone embeds by linear coordinates.  Tangent ranks at every sample match the
cone dimension dim G_1 + 2.
"""

from fractions import Fraction

from contactcheck.lie import build_algebra, grade, killing
from contactcheck.orbits import (
    embedding_checks,
    kappa,
    kappa_round_trip,
    moment_map,
    orbit_sample,
    tangent_rank,
    theta_G_checks,
)
from contactcheck.rootsystem import builtin_root_system
from contactcheck.sampling import SeededSampler

rs = builtin_root_system("G2")
sc = build_algebra(rs)
kd = killing(sc)
gd = grade(sc, kd)

print(f"G2: dim {sc.dim}, grading {gd.dims()}, cone dim = {len(gd.pieces[1]) + 2}")
print()
for result in theta_G_checks(gd):
    print(f"   {result.status:4s}  {result.check_id}")

sampler = SeededSampler(21)
base = orbit_sample(sc, [])
word = sampler.word(rs, 2)
moved = orbit_sample(sc, word)
print()
print(f"word: {[(r, str(t)) for r, t in word]}")
print(f"moved point (nonzero coords): "
      f"{[(sc.basis.labels[i], str(c)) for i, c in sorted(moved.vector.items())][:6]} ...")
print(f"isotropy B(pt, pt) = {kd.form(moved.vector, moved.vector)}")
print(f"moment vector of e_rho: single entry -1 against e_(-rho); round trip: "
      f"{kappa(kd, moment_map(kd, base)) == base.vector}")
print(f"kappa round trip at the moved point: {kappa_round_trip(kd, moved)}")

points = [base, moved, orbit_sample(sc, sampler.word(rs, 2))]
results = embedding_checks(gd, points, [tangent_rank(sc, pt) for pt in points])
ranks = [r for r in results if "tangent" in r.check_id]
print(f"tangent ranks at {len(ranks)} samples: "
      + ("all equal dim G_1 + 2" if all(r.status == "pass" for r in ranks) else "FAILURES"))
