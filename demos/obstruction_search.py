"""Walkthrough: a 3-manifold that is never a symplectic orbit space.

Gluing two 5_2 knot complements onto the three-torus gives a 3-manifold
whose SW coefficients are {4, -6, 9}: no units.  A fold by an Euler
class that merges no terms keeps these coefficients, so it is
obstructed; only the finitely many colliding classes can merge terms,
and each of them is folded below.  No fold produces +-1, so *every*
4-manifold with a free circle action over this orbit space fails the
unit-coefficient criterion.  Run with

    python demos/obstruction_search.py
"""

from swfold import (
    BUILTIN_KNOTS,
    colliding_classes,
    fiber_sum,
    fold,
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

unfolded = fold(manifold, "0")
print(f"\nunfolded: obstructed = {unfolded.obstructed} (every class that merges no terms has this verdict)")

colliders = colliding_classes(manifold)
print(f"{len(colliders)} Euler classes (one per +-pair) merge terms; each folded exactly:")
folds = [fold(manifold, chi) for chi in colliders]
for folded in folds:
    print(f"  chi = {folded.chi_text:<14} obstructed = {folded.obstructed}  sw4 = {folded.digest}")

print(f"\nall_obstructed = {unfolded.obstructed and all(f.obstructed for f in folds)}")
print("\n" + stabilization_note(manifold, 5))
