"""Knot-file fuzzing: any JSON text given as a knot file registers, or fails with one typed error line.

The drawn file goes through ``swfold knot register <file>``, and through
``swfold knot list`` with ``SWFOLD_KNOT_TABLE`` naming it, both by
``swfold.cli.main``.  Each run must exit 0, or exit 1 or 2 with exactly one
``error[...]`` line on stderr; any other exception escapes ``main`` and fails
the test, as a traceback would end the console script.  Draws are any JSON
value, a registration-shaped object whose fields may hold any JSON value,
a valid registration, or a list of these, in the style of ``test_spec_fuzz``.
"""

import contextlib
import io
import os
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from swfold import cli
from swfold.alexander import BUILTIN_KNOTS
from swfold.cli import ENV_KNOT_TABLE, main

from test_spec_fuzz import dump, json_values, registrations

#: Registrations that pass, so that the success path (and a name clash in a list) is fuzzed too.
valid = st.fixed_dictionaries({"name": st.sampled_from(["k", "k2", "3_1"]), "fibered": st.booleans()}) \
    .flatmap(lambda r: st.sampled_from([{"alexander": "-t + 3 - t^-1"}, {"alexander": "1"},
                                        {"seifert": [[1, 1], [0, -1]]}, {"seifert": [[-1, 0], [-1, 1]]}])
             .map(lambda field: {**r, **field}))
knot_files = st.one_of(json_values, registrations, valid, st.lists(valid | registrations | json_values, max_size=3))


@pytest.fixture(scope="module")
def knot_path(tmp_path_factory):
    return tmp_path_factory.mktemp("knot-fuzz") / "knots.json"


def outcome(argv, table=None):
    """Exit code, stdout and stderr lines of one command, from the built-in knots and ``table`` as the env file."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()  # main writes to stdout's buffer
    with mock.patch.dict(os.environ), mock.patch.object(cli, "session_knots", BUILTIN_KNOTS), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(ENV_KNOT_TABLE, None)
        if table is not None:
            os.environ[ENV_KNOT_TABLE] = table
        code = main(argv)
    return code, out.buffer.getvalue().decode(), err.getvalue().splitlines()


def assert_one_typed_line(code, out, lines, shows):
    if code == 0:
        assert lines == [] and shows in out, out
    else:
        assert code in (1, 2) and out == ""
        assert len(lines) == 1 and re.fullmatch(r"error\[[a-z]+\]: .+", lines[0]), lines


@settings(max_examples=300, deadline=None)
@given(text=knot_files.map(dump))
@example(text='{"name": "k", "fibered": true, "alexander": "-t + 3 - t^-1"}')
@example(text='[{"name": "k", "fibered": true, "alexander": "1"}, {"name": "k", "fibered": true, "alexander": "1"}]')
@example(text='{"name": "3_1", "fibered": true, "alexander": "1"}')
@example(text='{"name": "k", "fibered": false, "seifert": [[' + "7" * 5000 + "]]}")
@example(text='{"name": "k", "fibered": false, "alexander": "' + "9" * 5000 + '"}')
@example(text='{"name": "\\ud800", "fibered": true, "alexander": "1"}')
@example(text="[" * 100_000 + "]" * 100_000)
@example(text="[]")
def test_any_json_knot_file_registers_or_fails_with_one_typed_line(knot_path, text):
    knot_path.write_text(text, encoding="utf-8", errors="surrogatepass")
    assert_one_typed_line(*outcome(["knot", "register", str(knot_path)]), shows="registered " if text != "[]" else "")
    assert_one_typed_line(*outcome(["knot", "list"], table=str(knot_path)), shows="3_1  fibered=true")
