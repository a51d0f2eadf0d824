"""Build a simple Lie algebra with exact structure constants and grade it.

The construction rescales a Chevalley basis so that ``[e_a, e_{-a}] = -h_a``
with ``h_a`` the Killing dual of the root functional: after that, the pairing
``B(e_rho, -e_{-rho})`` is exactly 1 and the derivative of the fiber
character is exactly 2.  All of it is checkable by eye here for A2.
"""

from contactcheck.lie import build_algebra, chi_differential, grade, killing
from contactcheck.rootsystem import builtin_root_system
from contactcheck.scalars import ZERO

rs = builtin_root_system("A2")
sc = build_algebra(rs)
kd = killing(sc)
gd = grade(sc, kd)

print("Basis:", ", ".join(sc.basis.labels))
print()
print("A few brackets ([h1, e_a], [e_a, e_-a], a root pair):")
for i, j in [(0, 2), (2, 2 + rs.n_positive), (2, 3)]:
    entry = sc.bracket_basis(i, j)
    text = " + ".join(f"({c})*{sc.basis.labels[k]}" for k, c in sorted(entry.items())) or "0"
    print(f"   [{sc.basis.labels[i]}, {sc.basis.labels[j]}] = {text}")

print()
print("Killing Gram on the Cartan block:")
for row in kd.gram[: rs.rank]:
    print("   ", [str(row.get(j, ZERO)) for j in range(rs.rank)])

print()
print(f"H_rho coordinates: {[str(kd.hrho.get(k, ZERO)) for k in range(sc.dim)]}")
print(f"grading piece dims (i = -2..2): {gd.dims()}")
print(f"centralizer of e_rho has dim {len(gd.spans['L0'])}")
print(f"middle-piece complement G00 has dim {len(gd.spans['G00'])}")
print(f"character differential on H_rho: {chi_differential(kd)}  (always 2)")
