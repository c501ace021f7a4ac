"""Walkthrough: a fibered 3-manifold whose circle-action 4-manifolds fail Taubes.

We glue two figure-eight knot complements onto the first two meridians
of the three-torus, print the resulting SW polynomial, fold it by the
Euler class 4*m1, and check the unit-coefficient criterion.  Run with

    python demos/build_and_fold.py
"""

from swfold import (
    BUILTIN_KNOTS,
    fiber_sum,
    fold,
    require_b_plus,
    three_torus,
)

# The figure-eight knot is fibered, so the fiber sum is a fibered
# 3-manifold: its product with the circle is symplectic.
fig8 = BUILTIN_KNOTS.lookup("4_1")
print(f"knot {fig8.name}: alexander = {fig8.alexander}, fibered = {fig8.fibered}")

manifold = three_torus()
manifold = fiber_sum(manifold, [(fig8, "m1")])
manifold = fiber_sum(manifold, [(fig8, "m2")])
print(f"\nmanifold {manifold.name}  (b1 = {manifold.b1}, fibered = {manifold.fibered})")
print(f"sw3 = {manifold.sw3}")

# Folding needs a nonzero Euler class and b_+ = b1 - 1 >= 2; fold()
# checks b_+ itself and raises HypothesisError when it fails.
chi = "4*m1"
require_b_plus(manifold)
print(f"\nfold hypotheses for chi = {chi}: chi is nonzero, "
      f"b_+ = {manifold.b1 - 1} (need >= 2)")

folded = fold(manifold, chi)
print(f"sw4 = {folded.poly}")
print("exponents are coset representatives: the m1-coordinate is reduced mod 4,")
print("so the +-2 powers of m1 merge and the corner coefficients double to 2.")

# No coefficient is +-1, so no spin-c class can be a symplectic canonical
# class: the 4-manifold admits no symplectic structure, either orientation.
# The verdict is read off the same fold record, by its unit classes.
print(f"\nobstructed = {folded.obstructed} (unit classes: {list(folded.unit_classes) or 'none'}, "
      f"injective = {folded.injective})")

# Contrast: the product with the circle (zero Euler class) keeps the
# unfolded polynomial, whose corners are +1 -- consistent with the
# product of a fibered 3-manifold being symplectic.
product = fold(manifold, "0")
print(f"product case obstructed = {product.obstructed} "
      f"(unit classes: {[list(u) for u in product.unit_classes]})")
