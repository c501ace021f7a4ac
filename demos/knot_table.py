"""Walkthrough: Seifert matrices, Alexander polynomials, custom knots.

Shows the built-in table, rederives each polynomial from its Seifert
matrix, and adds a custom knot both ways.  Knot tables are immutable
values: adding knots returns a new table.  Run with

    python demos/knot_table.py
"""

from swfold import (
    BUILTIN_KNOTS,
    KNOT_BASIS,
    alexander_from_seifert,
    from_text,
    knot_from_alexander,
    knot_from_seifert,
    validate_alexander,
)

print("built-in table:")
for name in BUILTIN_KNOTS.names():
    record = BUILTIN_KNOTS.lookup(name)
    seifert = [list(r) for r in record.seifert.entries]
    print(f"  {name}  fibered={record.fibered}  V={seifert}  alexander = {record.alexander}")

# The polynomial is det(tV - V^T), centered so t -> 1/t fixes it and
# scaled so the value at t = 1 is +1.
V = ((-1, 1), (0, -1))
print(f"\nrederive the trefoil from V = {[list(r) for r in V]}:")
print(f"  alexander = {alexander_from_seifert(V)}")

# The unknot: empty Seifert matrix, trivial polynomial.
unknot = knot_from_seifert("unknot", True, ())
table = BUILTIN_KNOTS.with_records([unknot])
print(f"\nregistered {unknot.name}: alexander = {unknot.alexander}")

# Registering by polynomial runs the validation gate instead: the
# polynomial must be symmetric and evaluate to +-1 at t = 1, and the gate
# lists each condition it fails.  A value of -1 is flipped to +1.
candidate = from_text("t^2 - 3 + t^-2", KNOT_BASIS)
problems = validate_alexander(candidate)
print(f"\ncandidate {candidate}, value at 1 = {candidate.eval_ones()}: {'; '.join(problems) or 'passes'}")
if not problems:
    record = knot_from_alexander("custom", False, candidate)
    table = table.with_records([record])
    print(f"registered {record.name}: alexander = {record.alexander}")

print(f"\ntable is now: {', '.join(table.names())}")
print(f"built-in table is unchanged: {', '.join(BUILTIN_KNOTS.names())}")
