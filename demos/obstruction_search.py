"""Walkthrough: a 3-manifold that is never a symplectic orbit space.

Gluing two 5_2 knot complements onto the three-torus gives a 3-manifold
whose SW coefficients are {4, -6, 9}: no units.  Folding can only merge
coefficients, and no merge produces +-1 here, so *every* 4-manifold with
a free circle action over this orbit space fails the unit-coefficient
criterion.  The sweep below verifies this for every Euler class in a
box; the stabilization note explains why the box suffices.  Run with

    python demos/obstruction_search.py
"""

from swfold import (
    BUILTIN_KNOTS,
    euler_search,
    fiber_sum,
    stabilization_note,
    three_torus,
)

five2 = BUILTIN_KNOTS.lookup("5_2")
print(f"knot {five2.name}: alexander = {five2.alexander}, fibered = {five2.fibered}")

manifold = three_torus()
manifold = fiber_sum(manifold, [(five2, "m1")])
manifold = fiber_sum(manifold, [(five2, "m2")])
print(f"\nmanifold {manifold.name}  (fibered = {manifold.fibered})")
print(f"sw3 = {manifold.sw3}")

result = euler_search(manifold, box=5)
print(f"\nsearched {len(result.entries)} Euler classes (box 5, one per +-pair)")
print(f"all_obstructed = {result.all_obstructed}")

merged = [e for e in result.entries if not e.injective]
print(f"{len(merged)} folds actually merge terms; a few of them:")
for entry in merged[:5]:
    print(f"  chi = {entry.chi.text:<14} sw4 = {entry.digest}")

print("\n" + stabilization_note(manifold, 5))
