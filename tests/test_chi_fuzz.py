"""Euler-class fuzzing: any ``--chi`` text folds, or fails with one typed error line.

``swfold fold`` and ``swfold obstruct`` run on ``demos/fig8-pair.json``
through ``swfold.cli.main``, with the drawn text passed as ``--chi=TEXT``
so that a text starting with ``-`` stays the option's value.  Each run must
exit 0, or exit 1 or 2 with exactly one ``error[...]`` line on stderr; any
other exception escapes ``main`` and fails the test, as a traceback would
end the console script.  Draws are any text, a join of grammar tokens
(names in and out of the basis, operators, parentheses and numbers up to
past ``int()``'s 4300-digit limit), or a sum of signed multiples of names.
"""

import pathlib

from hypothesis import example, given, settings, strategies as st

from test_knot_fuzz import assert_one_typed_line, outcome

FIG8_PAIR = str(pathlib.Path(__file__).resolve().parent.parent / "demos" / "fig8-pair.json")

tokens = st.sampled_from(["m1", "m2", "m3", "m4", "t", "x", "+", "-", "*", "^", "(", ")", " ", "0", "1", "2", "-1",
                          "4", "10", "9" * 30, "9" * 5000, "1.5", "²", "\x00"])
#: Sums of signed multiples of a name, which mostly parse, so that the folds are fuzzed too.
combinations = st.lists(st.tuples(st.sampled_from(["", "-", " + ", " - "]),
                                  st.sampled_from(["", "2*", "4*", "10*", "9" * 30 + "*", "0*"]),
                                  st.sampled_from(["m1", "m2", "m3", "m4"])), min_size=1, max_size=3) \
    .map(lambda terms: "".join(map("".join, terms)))
chi_texts = st.text(max_size=20) | st.lists(tokens, max_size=8).map("".join) | combinations


@settings(max_examples=300, deadline=None)
@given(text=chi_texts)
@example(text="9" * 5000 + "*m1")
@example(text="\ud800")
@example(text="m1\x00")
@example(text="m1^")
@example(text="-m1")
@example(text="m1 - m1")  # the zero class: the product case
def test_any_chi_text_folds_or_fails_with_one_typed_line(text):
    assert_one_typed_line(*outcome(["fold", FIG8_PAIR, f"--chi={text}"]), shows="manifold = ")
    assert_one_typed_line(*outcome(["obstruct", FIG8_PAIR, f"--chi={text}"]), shows="obstructed = ")
