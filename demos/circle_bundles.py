"""Walkthrough: SW polynomials of circle bundles over surfaces, two ways.

The bundle with Euler number n over a genus-g surface has SW polynomial
computable either by folding (t - 1/t)^(2g-2) modulo n, or by an
alternating-binomial closed form.  The two agree up to one overall
sign.  Run with

    python demos/circle_bundles.py
"""

from swfold import (
    circle_bundle_sw_closed_form,
    circle_bundle_sw_direct,
    equal_up_to_sign,
    surface_times_circle,
)

print("unfolded products (t - 1/t)^(2g-2):")
for genus in (1, 2, 3):
    print(f"  genus {genus}: {surface_times_circle(genus).sw3}")

print("\ngenus 2, Euler numbers 1..6 (direct fold | closed form):")
for n in range(1, 7):
    direct = circle_bundle_sw_direct(2, n)
    closed = circle_bundle_sw_closed_form(2, n)
    agree = "agree" if equal_up_to_sign(direct, closed) else "DISAGREE"
    print(f"  n = {n}:  {str(direct.poly):>22}  |  {str(closed.poly):>22}   [{agree}]")

# n = 2 cancels completely; n = 4 leaves -2 + 2*t^2; odd n relabels the
# residues, e.g. n = 3 sends t^-2 to t^1.
print("\nextreme coefficients of the unfolded polynomial are +-1, so every")
print("injective fold keeps a unit coefficient; total cancellation (n = 2)")
print("or coefficient merging can remove them.")

# Both routes map an exponent e to the same residue, e % |n| (canonical_rep by
# the class (|n|,) is e - (e // |n|)*|n|), so the grid checks the two code
# paths and the sign convention; the independent check of the values is the
# math.comb expansion in tests/test_fold.py and bench/oracles.py.
print("\ncross-check over a grid (every genus 1..5, |n| in 1..10):")
bad = 0
for genus in range(1, 6):
    for n in [k for k in range(-10, 11) if k != 0]:
        if not equal_up_to_sign(
            circle_bundle_sw_direct(genus, n), circle_bundle_sw_closed_form(genus, n)
        ):
            bad += 1
print(f"  mismatches: {bad} of 100")
