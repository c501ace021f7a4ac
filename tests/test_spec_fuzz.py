"""Spec fuzzing: any JSON text given as a spec file builds, or fails with one typed error line.

``swfold sw3 <spec>`` runs through ``swfold.cli.main`` on drawn files.  It
must exit 0, or exit 1 or 2 with exactly one ``error[...]`` line on stderr;
any other exception escapes ``main`` and fails the test, as a traceback would
end the console script.  Draws are either any JSON value or a spec-shaped
object whose fields may hold any JSON value, with genera, matrix sizes and
list lengths bounded so that a draw runs in milliseconds.
"""

import contextlib
import io
import json
import os
import re
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from swfold.cli import ENV_KNOT_TABLE, main

leaves = (st.none() | st.booleans() | st.integers(-100, 100)
          | st.sampled_from([30, -5000, 5000]).map(lambda d: (d > 0 or -1) * 10 ** abs(d))  # past int()'s limit
          | st.floats() | st.text(max_size=12))
json_values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=8), inner, max_size=4), max_leaves=12)

matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
registrations = st.fixed_dictionaries(
    {"name": st.sampled_from(["k", "3_1", "", "a b"]) | leaves, "fibered": st.booleans() | leaves},
    optional={"seifert": matrices | json_values,
              "alexander": st.sampled_from(["-t + 3 - t^-1", "t^2 + 3", "1", "t +"]) | leaves},
)
sums = st.fixed_dictionaries(
    {"knot": st.sampled_from(["3_1", "4_1", "5_2", "k", "9_99"]) | leaves,
     "meridian": st.sampled_from(["m1", "m2", "m3", "t", "m4"]) | leaves},
)
bases = (st.sampled_from(["t3", "t4"]) | st.fixed_dictionaries({"surface_x_s1": st.integers(-2, 40) | leaves})
         | json_values)
specs = st.fixed_dictionaries(
    {}, optional={"base": bases, "sums": st.lists(sums | json_values, max_size=4) | json_values,
                  "knots": st.lists(registrations | json_values, max_size=3) | json_values, "extra": leaves},
)


def dump(value) -> str:
    """JSON text of value; ``json.dumps`` writes NaN and Infinity, and an integer of any length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(json_values, specs).map(dump))
@example(text='{"base": {"surface_x_s1": ' + "9" * 5000 + "}}")
@example(text='{"base": {"surface_x_s1": NaN}}')
@example(text="[" * 100_000 + "]" * 100_000)
@example(text='{"base": "t3", "sums": [{"knot": "\\ud800", "meridian": "m1"}]}')
@example(text='{"base": "t3", "knots": [{"name": "\\udfff", "fibered": true, "alexander": "1"}]}')
@example(text='{"base": "t3", "knots": null, "sums": [{"knot": null, "meridian": null}]}')
@example(text='{"base": "t3", "knots": [{"name": "k", "fibered": true, "seifert": [[' + "7" * 5000 + "]]}]}")
def test_any_json_spec_builds_or_fails_with_one_typed_line(spec_path, text):
    spec_path.write_text(text, encoding="utf-8", errors="surrogatepass")
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()  # main writes to stdout's buffer
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(ENV_KNOT_TABLE, None)
        code = main(["sw3", str(spec_path)])
    lines, printed = err.getvalue().splitlines(), out.buffer.getvalue().decode()
    if code == 0:
        assert lines == [] and printed.startswith("manifold = ")
    else:
        assert code in (1, 2) and printed == ""
        assert len(lines) == 1 and re.fullmatch(r"error\[[a-z]+\]: .+", lines[0]), lines
