"""Command line: golden outputs, JSON payloads, schemas, exit codes."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from swfold import cli
from swfold.alexander import BUILTIN_KNOTS
from swfold.cli import ENV_KNOT_TABLE, OutputRecord, build_manifold, emit, load_spec, main, run
from swfold.errors import KnotLookupError, SpecFileError, StructuralError, UnknownVariableError, _at
from swfold.laurent import Basis, from_text

from conftest import schema_validator

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"
TREFOIL = str(DEMOS / "trefoil.json")
FIG8_PAIR = str(DEMOS / "fig8-pair.json")
FIVE2_PAIR = str(DEMOS / "52-pair.json")

NINE_TERM_FIG8 = (
    "m1^-2*m2^-2 - 3*m1^-2 + m1^-2*m2^2 - 3*m2^-2 + 9"
    " - 3*m2^2 + m1^2*m2^-2 - 3*m1^2 + m1^2*m2^2"
)
SIX_TERM_FOLD = "-3*m2^-2 + 9 - 3*m2^2 + 2*m1^2*m2^-2 - 6*m1^2 + 2*m1^2*m2^2"
#: A 2200-digit integer: a product of two has about 4400 digits, past str()'s limit of 4300.
N_2200 = int("9" * 2200)
#: An inline knot under a built-in knot's name with other data.
CLASHING_TREFOIL = {"name": "3_1", "fibered": False, "alexander": "3*t - 5 + 3*t^-1"}


def wide_knot(k: int) -> dict:
    """An inline knot of 2k + 1 terms, the alternating sum of t^j for |j| <= k."""
    return {"name": "wide", "fibered": False,
            "alexander": " ".join(f"{'-+'[j % 2 == 0]} t^{j}" for j in range(-k, k + 1))}


def validate_against(payload, schema_name):
    schema_validator(schema_name).validate(payload)


class TestLoadSpec:
    def test_fig8_pair(self):
        m = load_spec(FIG8_PAIR)
        assert m.b1 == 3
        assert m.fibered is True
        assert str(m.sw3) == NINE_TERM_FIG8

    def test_five2_pair_not_fibered(self):
        assert load_spec(FIVE2_PAIR).fibered is False

    def test_base_only(self, tmp_path):
        path = tmp_path / "t3.json"
        path.write_text('{"base": "t3"}')
        m = load_spec(str(path))
        assert m.name == "T3" and str(m.sw3) == "1"

    def test_surface_base(self, tmp_path):
        path = tmp_path / "s2.json"
        path.write_text('{"base": {"surface_x_s1": 2}}')
        assert str(load_spec(str(path)).sw3) == "t^-2 - 2 + t^2"

    def test_inline_knot_registration(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "base": "t3",
            "knots": [{"name": "local_trefoil", "fibered": True, "seifert": [[-1, 1], [0, -1]]}],
            "sums": [{"knot": "local_trefoil", "meridian": "m1"}],
        }))
        assert str(load_spec(str(path)).sw3) == "m1^-2 - 1 + m1^2"

    def test_schema_violations_carry_field_path(self):
        cases = [
            ({}, ".base"),
            ({"base": "t4"}, ".base"),
            ({"base": "t3", "sums": [{"knot": "3_1"}]}, ".sums[0]"),
            ({"base": "t3", "bogus": 1}, ".bogus"),
            ({"base": {"surface_x_s1": "two"}}, ".base.surface_x_s1"),
        ]
        for data, fragment in cases:
            with pytest.raises(SpecFileError) as err:
                build_manifold(data, BUILTIN_KNOTS, where="spec")
            assert fragment in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecFileError):
            load_spec(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("data, message", [
        (["t3"], "spec: expected a JSON object"),
        ({"base": "t3", "knots": {}}, "spec.knots: expected a list"),
        ({"base": "t3", "sums": {"knot": "3_1", "meridian": "m1"}}, "spec.sums: expected a list"),
        ({"base": "t3", "sums": [{"knot": 31, "meridian": "m1"}]},
         "spec.sums[0]: knot and meridian must be strings"),
        ({"base": "t3", "sums": [{"knot": "3_1", "meridian": ["m1"]}]},
         "spec.sums[0]: knot and meridian must be strings"),
    ])
    def test_shape_errors(self, data, message):
        with pytest.raises(SpecFileError) as err:
            build_manifold(data, BUILTIN_KNOTS, where="spec")
        assert str(err.value) == message

    @pytest.mark.parametrize("sums, error, name", [
        ([{"knot": "3_1", "meridian": "m9"}, {"knot": "9_99", "meridian": "m1"}], UnknownVariableError, "m9"),
        ([{"knot": "9_99", "meridian": "m1"}, {"knot": "3_1", "meridian": "m9"}], KnotLookupError, "9_99"),
        ([{"knot": "3_1", "meridian": "m9"}, {"knot": "3_1"}], UnknownVariableError, "m9"),
        ([{"knot": "3_1"}, {"knot": "9_99", "meridian": "m1"}], SpecFileError, "spec.sums[0]"),
    ])
    def test_first_bad_entry_in_spec_order_is_reported(self, sums, error, name):
        """A bad meridian, knot or entry shape is reported for the first entry that has one."""
        with pytest.raises(error) as err:
            build_manifold({"base": "t3", "sums": sums}, BUILTIN_KNOTS, where="spec")
        assert name in str(err.value)

    @pytest.mark.parametrize("knots, error, message", [
        ([CLASHING_TREFOIL, {"name": "k"}], StructuralError,
         "spec.knots[0]: knot '3_1' is already registered with different data"),
        ([{"name": "k"}, CLASHING_TREFOIL], SpecFileError, "spec.knots[0].fibered: expected true or false"),
        ([{**CLASHING_TREFOIL, "name": "k"}, CLASHING_TREFOIL], StructuralError,
         "spec.knots[1]: knot '3_1' is already registered with different data"),
        ([{**CLASHING_TREFOIL, "name": "k"}, {**CLASHING_TREFOIL, "name": "k", "alexander": "2*t - 3 + 2*t^-1"}],
         StructuralError,
         "spec.knots[1]: knot 'k' is already registered with different data"),
    ])
    def test_first_bad_knot_in_spec_order_is_reported(self, knots, error, message):
        """A clash with a knot already in the table, or an earlier inline one, counts as that entry's fault."""
        with pytest.raises(error) as err:
            build_manifold({"base": "t3", "knots": knots}, BUILTIN_KNOTS, where="spec")
        assert type(err.value) is error and str(err.value) == message


class TestTextOutputs:
    def test_sw3_golden(self):
        record = run(["sw3", FIG8_PAIR])
        assert record.status == 0
        assert f"sw3 = {NINE_TERM_FIG8}" in record.text
        assert "manifold = T3+4_1@m1+4_1@m2" in record.text

    def test_sw3_quiet(self):
        record = run(["sw3", FIG8_PAIR, "--quiet"])
        assert record.text == f"sw3 = {NINE_TERM_FIG8}"

    def test_trefoil_sw3(self):
        record = run(["sw3", TREFOIL, "--quiet"])
        assert record.text == "sw3 = m1^-2 - 1 + m1^2"

    def test_fold_golden(self):
        record = run(["fold", FIG8_PAIR, "--chi", "4*m1"])
        assert f"sw4 = {SIX_TERM_FOLD}" in record.text
        assert "pivot = m1, modulus = 4" in record.text

    def test_fold_zero_chi_product_case(self):
        record = run(["fold", FIG8_PAIR, "--chi", "0"])
        assert "product case" in record.text
        assert f"sw4 = {NINE_TERM_FIG8}" in record.text

    def test_bundle_both_match(self):
        record = run(["bundle", "--genus", "2", "--euler", "4"])
        assert "direct = -2 + 2*t^2" in record.text
        assert "closed = -2 + 2*t^2" in record.text
        assert "MATCH (up to sign)" in record.text

    def test_bundle_single_method(self):
        record = run(["bundle", "--genus", "2", "--euler", "3", "--method", "closed"])
        assert "closed = -2 + t + t^2" in record.text
        assert "direct" not in record.text

    def test_obstruct_verdict(self):
        record = run(["obstruct", FIG8_PAIR, "--chi", "4*m1"])
        assert "obstructed = true" in record.text
        assert "unit classes: (none)" in record.text

    def test_obstruct_not_obstructed(self):
        record = run(["obstruct", FIG8_PAIR, "--chi", "m1"])
        assert "obstructed = false" in record.text

    def test_search_output(self):
        record = run(["search", FIVE2_PAIR, "--box", "2"])
        rows = [line for line in record.text.splitlines() if line.startswith("chi = ")]
        assert len(rows) == ((2 * 2 + 1) ** 3 - 1) // 2
        assert "all_obstructed = true (62 entries)" in record.text
        assert "no units" in record.text  # stabilization note is appended

    @pytest.mark.parametrize("flags, renders", [((), 62), (("--json",), 0), (("--quiet",), 0)])
    def test_search_renders_digests_only_when_printed(self, monkeypatch, flags, renders):
        """One digest per row in the text header, and none for the JSON payload or --quiet, which print
        no digest: a digest is the ``_joined`` of its row's pieces, looked up key by key in the sweep's
        ``pieces`` memo, and chi texts come from the sweep's ``texts``."""
        calls, looked_up, rows = [], [], []
        sweep, joined = cli._sweep, cli._joined

        class Pieces(dict):  # the sweep's memo, recording each key it is asked for
            def __init__(self, memo):
                self.memo = memo

            def __getitem__(self, key):
                looked_up.append(key)
                return self.memo[key]

        def recording_sweep(manifold, box):
            note, found, terms, pieces, texts = sweep(manifold, box)
            rows.extend(keys for _, keys, _ in found)
            return note, found, terms, Pieces(pieces), texts

        def counting(texts):
            start, texts = len(looked_up), list(texts)
            if len(looked_up) > start:  # a digest: the keys whose pieces this call joins
                calls.append(looked_up[start:])
            return joined(texts)

        monkeypatch.setattr(cli, "_sweep", recording_sweep)
        monkeypatch.setattr(cli, "_joined", counting)
        run(["search", FIVE2_PAIR, "--box", "2", *flags])
        assert len(calls) == renders and len(looked_up) == sum(map(len, calls))
        # each digest renders a row of the sweep as it stands: a sorted list of plain int keys
        assert calls == rows[:renders]
        assert all(type(row) is list and row == sorted(row) and all(type(key) is int for key in row) for row in calls)

    def test_knot_list(self):
        record = run(["knot", "list"])
        assert "3_1  fibered=true  alexander = t^-1 - 1 + t" in record.text
        assert "5_2  fibered=false  alexander = 2*t^-1 - 3 + 2*t" in record.text

    def test_knot_show(self):
        record = run(["knot", "show", "4_1"])
        assert "alexander = -t^-1 + 3 - t" in record.text
        assert "seifert = [[1, 1], [0, -1]]" in record.text

    def test_knot_register(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"name": "granny", "fibered": True,
                                    "alexander": "t^2 - 2*t + 3 - 2*t^-1 + t^-2"}))
        record = run(["knot", "register", str(path)])
        assert "registered granny" in record.text


class TestJsonOutputs:
    def test_sw3_payload_schema_and_round_trip(self):
        record = run(["sw3", FIG8_PAIR, "--json"])
        validate_against(record.payload, "output-sw3.schema.json")
        basis = Basis(tuple(record.payload["basis"]))
        poly = from_text(record.payload["sw3"], basis)
        assert str(poly) == record.payload["sw3"]
        assert record.payload["sw3"] == NINE_TERM_FIG8

    def test_fold_payload(self):
        record = run(["fold", FIG8_PAIR, "--chi", "4*m1", "--json"])
        validate_against(record.payload, "output-fold.schema.json")
        assert record.payload["sw4"] == SIX_TERM_FOLD
        assert record.payload["coefficient_sum"] == 1
        assert record.payload["pivot"] == "m1"
        assert record.payload["modulus"] == 4
        basis = Basis(("m1", "m2", "m3"))
        assert str(from_text(record.payload["sw4"], basis)) == record.payload["sw4"]

    def test_fold_product_payload(self):
        record = run(["fold", FIG8_PAIR, "--chi", "0", "--json"])
        validate_against(record.payload, "output-fold.schema.json")
        assert record.payload["product_case"] is True
        assert record.payload["pivot"] is None

    def test_bundle_payload(self):
        record = run(["bundle", "--genus", "2", "--euler", "4", "--json"])
        validate_against(record.payload, "output-bundle.schema.json")
        assert record.payload["match"] is True

    def test_obstruct_payload(self):
        record = run(["obstruct", FIG8_PAIR, "--chi", "4*m1", "--json"])
        validate_against(record.payload, "output-obstruct.schema.json")
        assert record.payload["obstructed"] is True
        assert record.payload["unit_classes"] == []

    def test_search_payload(self):
        record = run(["search", FIVE2_PAIR, "--box", "1", "--json"])
        validate_against(record.payload, "output-search.schema.json")
        assert record.payload["all_obstructed"] is True
        assert record.payload["count"] == 13
        entry = record.payload["entries"][0]
        assert set(entry) == {"chi", "obstructed", "unit_classes", "injective"}

    def test_knot_payloads(self, tmp_path):
        validate_against(run(["knot", "list", "--json"]).payload, "output-knot-list.schema.json")
        validate_against(run(["knot", "show", "3_1", "--json"]).payload, "output-knot-show.schema.json")
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"name": "my_unknot", "fibered": True, "seifert": []}))
        validate_against(run(["knot", "register", str(path), "--json"]).payload,
                         "output-knot-register.schema.json")

    def test_fixture_specs_validate_against_input_schema(self):
        for fixture in (TREFOIL, FIG8_PAIR, FIVE2_PAIR):
            validate_against(json.loads(pathlib.Path(fixture).read_text()),
                             "manifold-spec.schema.json")

    def test_knot_alexander_fields_round_trip(self):
        record = run(["knot", "list", "--json"])
        t = Basis(("t",))
        for row in record.payload["knots"]:
            assert str(from_text(row["alexander"], t)) == row["alexander"]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["sw3", FIG8_PAIR],
        ["sw3", FIG8_PAIR, "--json"],
        ["fold", FIVE2_PAIR, "--chi", "m1 + m2", "--json"],
        ["search", FIVE2_PAIR, "--box", "1", "--json"],
        ["knot", "list", "--json"],
    ])
    def test_byte_identical_across_runs(self, argv):
        assert emit(run(argv)) == emit(run(argv))

    @pytest.mark.parametrize("spec, flags, sha256", [
        (FIVE2_PAIR, (), "6b66723acafd51e2152be1d5748beca6d4bfd0877d73601f5d159c68a2d4264f"),
        (FIVE2_PAIR, ("--json",), "24878583f359e42db031176d6908fdc712e5ea4750b136b1b3c24fd890d60898"),
        (FIVE2_PAIR, ("--quiet",), "dc5aab1cb509b9d73401a9fd6a9d415d4fa95fbf878678fb5e0a148cfc8ca35c"),
        (FIG8_PAIR, (), "e6b7a96819cdd40873731347cc3249ae5f5bd8a6a2948c269a930ab9a54c05ba"),
        (FIG8_PAIR, ("--json",), "e016e48ec83ff146576ba8913aea61c906ce0a1d2422d0823f927775892a17ee"),
        (FIG8_PAIR, ("--quiet",), "b94e4e8ed6ddbc426381047a1a118349b14e1312a9b8565e03d6b3eefdc33985"),
    ])
    def test_box8_search_listing_bytes_frozen(self, spec, flags, sha256):
        """The box-8 listings, the size the benchmark runs, keep their bytes."""
        assert hashlib.sha256(emit(run(["search", spec, "--box", "8", *flags]))).hexdigest() == sha256

    def test_json_keys_sorted(self):
        blob = emit(run(["fold", FIG8_PAIR, "--chi", "4*m1", "--json"])).decode()
        payload = json.loads(blob)
        assert list(payload) == sorted(payload)


class TestOutputRecord:
    def test_two_fields_and_constant_status(self):
        assert OutputRecord.__slots__ == ("text", "payload")
        assert OutputRecord().status == 0 and OutputRecord.status == 0

    @pytest.mark.parametrize("payload, out", [
        (None, b"plain\n"),
        ({}, b"{}\n"),
        ({"b": [], "a": 1}, b'{\n  "a": 1,\n  "b": []\n}\n'),
    ])
    def test_emit_prints_json_exactly_when_a_payload_is_set(self, payload, out):
        assert emit(OutputRecord(text="plain", payload=payload)) == out


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["sw3", TREFOIL, "--quiet"]) == 0
        assert capsys.readouterr().out == "sw3 = m1^-2 - 1 + m1^2\n"

    def test_unknown_knot_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"base": "t3", "sums": [{"knot": "9_99", "meridian": "m1"}]}))
        assert main(["sw3", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error[lookup]:")

    def test_bad_chi_exits_2(self, capsys):
        assert main(["fold", FIG8_PAIR, "--chi", "m1^2"]) == 2
        assert capsys.readouterr().err.startswith("error[parse]:")

    def test_unknown_chi_variable_exits_2(self, capsys):
        assert main(["fold", FIG8_PAIR, "--chi", "z1"]) == 2
        assert capsys.readouterr().err.startswith("error[name]:")

    def test_missing_file_exits_2(self, capsys):
        assert main(["sw3", "no-such-file.json"]) == 2
        assert capsys.readouterr().err.startswith("error[spec]:")

    def test_bad_box_exits_1(self, capsys):
        assert main(["search", FIVE2_PAIR, "--box", "0"]) == 1
        assert capsys.readouterr().err.startswith("error[domain]:")

    @pytest.mark.parametrize("box", ["100000", "9" * 4000])
    def test_oversized_box_exits_1_at_once(self, capsys, box):
        """4.0e15 classes, or a box past str()'s digit limit for its class count: one line, no sweep."""
        start = time.perf_counter()
        assert main(["search", FIG8_PAIR, "--box", box]) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error[domain]: search box ") and err.count("\n") == 1
        assert "over the limit of 10000000" in err

    def test_bad_genus_exits_1(self, capsys):
        assert main(["bundle", "--genus", "0", "--euler", "2"]) == 1
        assert capsys.readouterr().err.startswith("error[domain]:")

    def test_closed_form_zero_euler_exits_1(self, capsys):
        assert main(["bundle", "--genus", "2", "--euler", "0", "--method", "closed"]) == 1
        assert capsys.readouterr().err.startswith("error[domain]:")

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-subcommand"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["fold", FIG8_PAIR])  # --chi is required
        assert err.value.code == 2

    @pytest.mark.parametrize("form", [{"alexander": "2*t - 3 + 2*t^-1"}, {"seifert": [[-1, 1], [0, -2]]}],
                             ids=["alexander", "seifert"])
    def test_fibered_registration_with_a_non_monic_polynomial_exits_2(self, capsys, tmp_path, form):
        """A fibered knot's Alexander polynomial is monic; 5_2's leading coefficient 2 refutes the flag,
        registered or declared inline, so no spec summing the knot reports a fibered orbit."""
        error = ("knot 'fake' cannot be fibered: its Alexander polynomial "
                 "has leading coefficient 2, and a fibered knot's is +-1\n")
        path, spec = tmp_path / "k.json", tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "fake", "fibered": True, **form}))
        assert main(["knot", "register", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error[structure]: {error}")
        spec.write_text(json.dumps({"base": "t3", "knots": [{"name": "fake", "fibered": True, **form}],
                                    "sums": [{"knot": "fake", "meridian": "m1"}, {"knot": "fake", "meridian": "m2"}]}))
        assert main(["obstruct", str(spec), "--chi", "m3"]) == 2
        assert capsys.readouterr() == ("", f"error[structure]: {spec}.knots[0]: {error}")
        path.write_text(json.dumps({"name": "fake", "fibered": False, **form}))
        assert main(["knot", "register", str(path)]) == 0
        assert capsys.readouterr().out == "registered fake  fibered=false  alexander = 2*t^-1 - 3 + 2*t\n"

    def test_bad_seifert_registration_exits_2(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"name": "x", "fibered": True, "seifert": [[1, 0], [0, 1]]}))
        assert main(["knot", "register", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error[seifert]:")


class TestJsonBooleans:
    """JSON true/false are not integers, though Python's bool subclasses int."""

    def assert_one_error_line(self, capsys, code):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error[{code}]:") and err.count("\n") == 1

    def test_boolean_genus_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bool-genus.json"
        path.write_text(json.dumps({"base": {"surface_x_s1": True}}))
        assert main(["sw3", str(path)]) == 2
        self.assert_one_error_line(capsys, "spec")

    def test_boolean_seifert_entries_exit_2(self, capsys, tmp_path):
        knot = {"name": "k", "fibered": False, "seifert": [[True, True], [False, 2]]}
        path = tmp_path / "bool-knot.json"
        path.write_text(json.dumps(knot))
        assert main(["knot", "register", str(path)]) == 2
        self.assert_one_error_line(capsys, "structure")
        spec = tmp_path / "bool-spec.json"
        spec.write_text(json.dumps({"base": "t3", "knots": [knot],
                                    "sums": [{"knot": "k", "meridian": "m1"}]}))
        assert main(["sw3", str(spec)]) == 2
        self.assert_one_error_line(capsys, "structure")


class TestMalformedInputs:
    """Each bad input exits 2 with one error line and no traceback."""

    def assert_one_error_line(self, capsys, prefix):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(prefix) and err.count("\n") == 1

    @pytest.mark.parametrize("chi", ["m1^\u00b2", "\u00b2*m1", "\u0663*m1"])
    def test_non_ascii_digits_in_chi(self, capsys, chi):
        assert main(["fold", FIG8_PAIR, "--chi", chi]) == 2
        self.assert_one_error_line(capsys, "error[parse]: unexpected character")

    def test_non_ascii_digits_in_knot_file(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"name": "k", "fibered": False, "alexander": "t^\u00b2"}))
        assert main(["knot", "register", str(path)]) == 2
        self.assert_one_error_line(capsys, f"error[parse]: {path}.alexander: unexpected character")

    @pytest.fixture(params=["not-utf8", "deep"])
    def unreadable(self, request, tmp_path):
        """A file that is not UTF-8, or JSON nested too deep to decode."""
        path = tmp_path / f"{request.param}.json"
        if request.param == "not-utf8":
            path.write_bytes(b'{"base": "t3", "name": "\xff"}')
            return str(path), "cannot read {kind}"
        path.write_text("[" * 100_000)
        return str(path), "{path}: invalid JSON: "

    def test_spec_file(self, capsys, unreadable):
        path, message = unreadable
        assert main(["sw3", path]) == 2
        self.assert_one_error_line(capsys, "error[spec]: " + message.format(kind="", path=path))

    def test_knot_register(self, capsys, unreadable):
        path, message = unreadable
        assert main(["knot", "register", path]) == 2
        self.assert_one_error_line(capsys, "error[spec]: " + message.format(kind="knot file ", path=path))

    def test_knot_table_env(self, capsys, monkeypatch, unreadable):
        path, message = unreadable
        monkeypatch.setenv(ENV_KNOT_TABLE, path)
        assert main(["knot", "list"]) == 2
        self.assert_one_error_line(capsys, "error[spec]: " + message.format(kind="knot file ", path=path))

    def test_oversized_chi_literal(self, capsys):
        # past int()'s 4300-digit limit for decimal strings
        assert main(["fold", FIG8_PAIR, "--chi", "9" * 5000 + "*m1"]) == 2
        self.assert_one_error_line(capsys, "error[parse]: ")

    def test_exponent_summed_past_the_digit_limit_in_chi(self, capsys):
        nines = "9" * 4300  # each literal parses; their sum has 4301 digits
        assert main(["fold", FIG8_PAIR, "--chi", f"m1^{nines}*m1^{nines}"]) == 2
        self.assert_one_error_line(capsys, "error[parse]: Euler class must be a linear combination of basis "
                                           "variables, got term with exponents a tuple holding an integer too long")

    @pytest.mark.parametrize("spec, mode", [("t3", []), ("t3", ["--json"]), ("fig8", [])],
                             ids=["t3", "t3-json", "fig8"])
    def test_modulus_past_the_digit_limit(self, capsys, tmp_path, spec, mode):
        nines = "9" * 4300  # each literal parses; their sum, chi's pivot entry, has 4301 digits
        path = tmp_path / "t3.json"
        path.write_text('{"base": "t3"}')  # sw3 = 1 folds to 1: only chi and its modulus are too long
        argv = ["fold", FIG8_PAIR if spec == "fig8" else str(path), "--chi", f"{nines}*m1 + {nines}*m1", *mode]
        assert main(argv) == 1
        self.assert_one_error_line(capsys, "error[domain]: result too large to print")

    def test_seifert_determinant_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"name": "k", "fibered": False, "seifert": [[0, 10**4000], [0, 0]]}))
        assert main(["knot", "register", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error[seifert]: not a knot Seifert matrix: det(V - V^T) = about 10^8000, "
                                  "expected +-1\n")

    def test_oversized_json_integer(self, capsys, tmp_path):
        path = tmp_path / "huge-genus.json"
        path.write_text('{"base": {"surface_x_s1": ' + "1" * 5000 + "}}")
        assert main(["sw3", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error[spec]: {path}: invalid JSON: an integer has more than 4300 digits, "
                       "Python's limit for converting text to int\n")
        assert "set_int_max_str_digits" not in err

    def test_result_too_large_to_print(self, capsys):
        # coefficients near 2^14397 have 4334 digits
        for method in ("closed", "both"):
            assert main(["bundle", "--genus", "7200", "--euler", "4", "--method", method]) == 1
            self.assert_one_error_line(capsys, "error[domain]: result too large to print")

    @pytest.mark.parametrize("mode", [[], ["--json"], ["--quiet"]], ids=["text", "json", "quiet"])
    @pytest.mark.parametrize("alexander, meridians, command", [
        # coefficients of two 2200-digit factors multiply: the search note's coefficient multiset
        (f"{N_2200}*t - {2 * N_2200 - 1} + {N_2200}*t^-1", ["m1", "m2"], ["search", "--box", "1"]),
        # a unit at an exponent of 4301 digits: the unit classes that obstruct lists
        (f"t^{'9' * 4300}*t^{'9' * 4300} - 1 + t^-{'9' * 4300}*t^-{'9' * 4300}", ["m1"], ["obstruct", "--chi", "m2"]),
    ], ids=["search-note", "obstruct-units"])
    def test_sw3_past_the_digit_limit(self, capsys, monkeypatch, tmp_path, mode, alexander, meridians, command):
        """Refused before any row: the sweep builds search's note ahead of its first packed exponent."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base": "t3", "knots": [{"name": "k", "fibered": False, "alexander": alexander}],
                                    "sums": [{"knot": "k", "meridian": m} for m in meridians]}))
        monkeypatch.setattr(sys.modules["swfold.obstruction"], "_pack", lambda *args: pytest.fail("a row was started"))
        assert main([command[0], str(path), *command[1:], *mode]) == 1
        self.assert_one_error_line(capsys, "error[domain]: result too large to print")

    @pytest.mark.parametrize("mode", [[], ["--json"], ["--quiet"]], ids=["text", "json", "quiet"])
    def test_search_whose_colliders_need_too_many_trial_divisions(self, capsys, monkeypatch, tmp_path, mode):
        """A unit at an exponent of 4301 digits: factoring its support differences would take about
        10^2151 trial divisions, so search refuses before the first one, at once, and before any row."""
        nines = "9" * 4300
        knot = {"name": "k", "fibered": True, "alexander": f"t^{nines}*t^{nines} - 1 + t^-{nines}*t^-{nines}"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base": "t3", "knots": [knot], "sums": [{"knot": "k", "meridian": "m1"}]}))
        obstruction = sys.modules["swfold.obstruction"]
        # packing sw3's exponents is the first row work after the colliders
        monkeypatch.setattr(obstruction, "_pack", lambda *args: pytest.fail("a row was started"))
        start = time.perf_counter()
        assert main(["search", str(path), "--box", "1", *mode]) == 1
        assert time.perf_counter() - start < 1
        self.assert_one_error_line(capsys, "error[domain]: finding the colliding Euler classes takes about 10^2151 "
                                           "trial divisions of 2 support differences, over the limit of 10000000")

    def test_search_over_both_limits_reports_the_trial_divisions(self, capsys, tmp_path):
        """Coefficients of 4400 digits and exponents of 4301: the colliders, found before any row is built,
        refuse first, ahead of the note's coefficient multiset that could not print."""
        nines = "9" * 4300
        knot = {"name": "k", "fibered": False,
                "alexander": f"{N_2200}*t^{nines}*t^{nines} - {2 * N_2200 - 1} + {N_2200}*t^-{nines}*t^-{nines}"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base": "t3", "knots": [knot],
                                    "sums": [{"knot": "k", "meridian": m} for m in ("m1", "m2")]}))
        assert main(["search", str(path), "--box", "1"]) == 1
        self.assert_one_error_line(capsys, "error[domain]: finding the colliding Euler classes takes about 10^2151 "
                                           "trial divisions of 2 support differences, over the limit of 10000000")

    @pytest.mark.parametrize("euler, method, digits", [(4, "closed", 4334), (4, "both", 4334), (-4, "direct", 4334),
                                                       (12, "both", 4334), (0, "direct", 4333)])
    def test_unprintable_bundle_is_refused_before_its_row(self, capsys, monkeypatch, euler, method, digits):
        """A fold by 4 of the genus-7200 row has a coefficient 2^14397 of 4334 digits: refused from the bound
        M^D/|n| on its largest coefficient, before any binomial is built; at n = 0 the row's C(14398, 7199)."""
        fold_module = sys.modules["swfold.fold"]
        monkeypatch.setattr(fold_module, "surface_times_circle", lambda genus: pytest.fail("a row was built"))
        assert main(["bundle", "--genus", "7200", "--euler", str(euler), "--method", method]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error[domain]: result too large to print: the bundle of genus 7200 and Euler number "
                       f"{euler} has a coefficient of at least {digits} digits, over the limit of 4300\n")

    def test_zero_euler_number_is_refused_before_the_row_of_both_routes(self, capsys, monkeypatch):
        """``--method both`` runs the closed form first, so n = 0 is refused before the direct route folds
        the genus-7200 row, whose C(14398, 7199) could not print either."""
        fold_module = sys.modules["swfold.fold"]
        monkeypatch.setattr(fold_module, "surface_times_circle", lambda genus: pytest.fail("a row was built"))
        assert main(["bundle", "--genus", "7200", "--euler", "0", "--method", "both"]) == 1
        error = "error[domain]: Euler number must be a nonzero integer for the closed form\n"
        assert capsys.readouterr() == ("", error)

    def test_bundle_one_digit_margin_at_its_edge(self, capsys):
        """At a 640-digit limit the genus-1066 fold by 4 has a lower bound of 641 digits: one digit past
        the limit is the float margin, so the precheck passes it, and ``str`` refuses its 641-digit
        coefficients with the generic line."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["bundle", "--genus", "1066", "--euler", "4", "--method", "closed"]) == 1
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr() == ("", "error[domain]: result too large to print: an integer has more digits than "
                                           "Python's int_max_str_digits limit (4300 by default)\n")

    def test_bundle_refusal_follows_the_live_digit_limit(self, capsys):
        """A limit of 0 lifts str()'s bound, so the genus-7200 fold by 4 prints its 4334-digit coefficients."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert main(["bundle", "--genus", "7200", "--euler", "4", "--method", "closed", "--quiet"]) == 0
            out = capsys.readouterr().out
        finally:
            sys.set_int_max_str_digits(limit)
        assert out.startswith("closed = ") and len(out) > 2 * 4334

    @pytest.mark.parametrize("euler", [1, -1, 2, -2])
    def test_large_genus_fold_that_cancels_every_term_prints(self, capsys, euler):
        # the middle binomial C(14398, 7199) has 4334 digits, but folding by 1 or 2 sums
        # the whole alternating row into one class: the digits of the row do not bound the fold
        assert main(["bundle", "--genus", "7200", "--euler", str(euler), "--method", "both"]) == 0
        out = f"genus = 7200, euler = {euler}\ndirect = 0\nclosed = 0\nMATCH (up to sign)\n"
        assert capsys.readouterr() == (out, "")

    def test_genus_whose_row_is_too_large_to_build(self, capsys, tmp_path):
        # (2g-1)(2g-2) bounds the bits of the binomial row: refused before any binomial is built
        path = tmp_path / "genus-100000.json"
        path.write_text(json.dumps({"base": {"surface_x_s1": 100000}}))
        assert main(["sw3", str(path)]) == 1
        self.assert_one_error_line(capsys, "error[domain]: genus 100000: its binomial row may take "
                                   f"(2g-1)(2g-2) = 39999400002 bits, over the limit of {2**28}\n")

    @pytest.mark.parametrize("mode", [[], ["--json"], ["--quiet"]], ids=["text", "json", "quiet"])
    @pytest.mark.parametrize("command", [["sw3"], ["fold", "--chi", "m1"], ["obstruct", "--chi", "m1"],
                                         ["search", "--box", "1"]], ids=["sw3", "fold", "obstruct", "search"])
    def test_fiber_sums_over_the_term_pair_bound(self, capsys, tmp_path, command, mode):
        """A 101-term knot on m1, m2 and m3 multiplies 1,040,603 term pairs: refused before the last product."""
        path = tmp_path / "wide-50.json"
        path.write_text(json.dumps({"base": "t3", "knots": [wide_knot(50)],
                                    "sums": [{"knot": "wide", "meridian": m} for m in ("m1", "m2", "m3")]}))
        start = time.perf_counter()
        assert main([command[0], str(path), *command[1:], *mode]) == 1
        assert time.perf_counter() - start < 0.5
        self.assert_one_error_line(capsys, "error[domain]: the fiber sums multiply at least 1040603 term pairs, "
                                           "over the limit of 1000000\n")

    @pytest.mark.parametrize("command", [["sw3"], ["search", "--box", "1"]], ids=["sw3", "search"])
    def test_the_term_pair_limit_itself_is_allowed(self, capsys, monkeypatch, command):
        """The 5_2 pair multiplies 3 + 9 term pairs: it builds at a limit of 12 and is refused at 11."""
        assert main([command[0], FIVE2_PAIR, *command[1:]]) == 0
        built = capsys.readouterr()
        monkeypatch.setattr(sys.modules["swfold.manifolds"], "MAX_TERM_PAIRS", 12)
        assert main([command[0], FIVE2_PAIR, *command[1:]]) == 0
        assert capsys.readouterr() == built
        monkeypatch.setattr(sys.modules["swfold.manifolds"], "MAX_TERM_PAIRS", 11)
        assert main([command[0], FIVE2_PAIR, *command[1:]]) == 1
        error = "error[domain]: the fiber sums multiply at least 12 term pairs, over the limit of 11\n"
        assert capsys.readouterr() == ("", error)

    @pytest.mark.parametrize("entry, error", [
        ({"knot": "wide", "meridian": "m4"},
         "error[name]: {}.sums[1].meridian: unknown variable 'm4'; basis is (m1, m2, m3)"),
        ({"knot": "nope", "meridian": "m2"}, "error[lookup]: unknown knot 'nope'; available: 3_1, 4_1, 5_2, wide"),
        (5, 'error[spec]: {}.sums[1]: expected {{"knot": name, "meridian": variable}}'),
        ({"knot": "wide", "meridian": "m1"}, "error[domain]: the fiber sums multiply at least 1002001 term pairs, "
                                             "over the limit of 1000000"),
    ], ids=["meridian", "knot", "shape", "none"])
    def test_a_bad_sum_after_a_wide_knot_is_reported(self, capsys, tmp_path, entry, error):
        """Every pair is read before the bound, so a malformed sums[1] is reported, not the bound it follows."""
        path = tmp_path / "spec.json"
        wide = {"knot": "wide", "meridian": "m1"}
        path.write_text(json.dumps({"base": "t3", "knots": [wide_knot(500)],
                                    "sums": [wide, entry, {**wide, "meridian": "m2"}, {**wide, "meridian": "m3"}]}))
        assert main(["sw3", str(path)]) == (1 if error.startswith("error[domain]") else 2)
        assert capsys.readouterr() == ("", error.format(path) + "\n")

    @pytest.mark.parametrize("name", ["x\ud800", "x\nobstructed = true", "x\u2028y"])
    def test_knot_name_that_is_not_one_printable_line(self, capsys, tmp_path, name):
        knot = {"name": name, "fibered": True, "alexander": "t - 1 + t^-1"}
        path = tmp_path / "k.json"
        path.write_text(json.dumps(knot))  # ASCII with \u escapes: valid JSON
        assert main(["knot", "register", str(path)]) == 2
        self.assert_one_error_line(capsys, f"error[spec]: {path}.name: expected one line of printable text, ")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": "t3", "knots": [knot], "sums": [{"knot": name, "meridian": "m1"}]}))
        assert main(["sw3", str(spec)]) == 2
        self.assert_one_error_line(capsys, f"error[spec]: {spec}.knots[0].name: expected one line of printable text, ")

    @pytest.mark.parametrize("alexander, problems", [
        ("t^2 + 3", "not symmetric under t -> 1/t; value at t=1 is 4, expected +-1"),
        ("t + 1 + t^-1", "value at t=1 is 3, expected +-1"),
        ("t^2 - t + 1", "not symmetric under t -> 1/t"),
    ])
    def test_alexander_gate_line(self, capsys, tmp_path, alexander, problems):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"name": "k", "fibered": False, "alexander": alexander}))
        assert main(["knot", "register", str(path)]) == 2
        line = f"error[structure]: invalid Alexander polynomial for 'k': {problems}\n"
        assert capsys.readouterr() == ("", line)

    def test_alexander_gate_line_for_an_inline_knot(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": "t3", "knots": [{"name": "k", "fibered": False, "alexander": "t^2 + 3"}],
                                    "sums": [{"knot": "k", "meridian": "m1"}]}))
        assert main(["sw3", str(spec)]) == 2
        line = (f"error[structure]: {spec}.knots[0]: invalid Alexander polynomial for 'k': "
                "not symmetric under t -> 1/t; value at t=1 is 4, expected +-1\n")
        assert capsys.readouterr() == ("", line)

    @pytest.mark.parametrize("data, line", [
        ({"base": "t3", "sums": [{"knot": "3_1", "meridian": "m1"}, {"knot": "4_1", "meridian": "m4"}]},
         "error[name]: {spec}.sums[1].meridian: unknown variable 'm4'; basis is (m1, m2, m3)\n"),
        ({"base": "t3", "knots": [CLASHING_TREFOIL], "sums": [{"knot": "3_1", "meridian": "m1"}]},
         "error[structure]: {spec}.knots[0]: knot '3_1' is already registered with different data\n"),
        # an inline knot that fails registration keeps its error's class, so its code, under the field path
        ({"base": "t3", "knots": [{"name": "fake", "fibered": True, "alexander": "2*t - 3 + 2*t^-1"}]},
         "error[structure]: {spec}.knots[0]: knot 'fake' cannot be fibered: its Alexander polynomial "
         "has leading coefficient 2, and a fibered knot's is +-1\n"),
        ({"base": "t3", "knots": [{"name": "x", "fibered": False, "seifert": [[1, 0], [0, 1]]}]},
         "error[seifert]: {spec}.knots[0]: not a knot Seifert matrix: det(V - V^T) = 0, expected +-1\n"),
        ({"base": "t3", "knots": [{"name": "y", "fibered": False, "alexander": "t + x"}]},
         "error[name]: {spec}.knots[0].alexander: unknown variable 'x'; basis is (t) (at position 4)\n"),
        # a schema error already names its field, so it passes through unchanged
        ({"base": "t3", "knots": [{"name": "z", "fibered": 1, "alexander": "t - 1 + t^-1"}]},
         "error[spec]: {spec}.knots[0].fibered: expected true or false\n"),
    ])
    def test_spec_entry_error_names_its_field(self, capsys, tmp_path, data, line):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(data))
        assert main(["sw3", str(spec)]) == 2
        assert capsys.readouterr() == ("", line.format(spec=spec))

    @pytest.mark.parametrize("entry, line", [
        ({"name": "fake", "fibered": True, "alexander": "2*t - 3 + 2*t^-1"},
         "error[structure]: {where}: knot 'fake' cannot be fibered: its Alexander polynomial "
         "has leading coefficient 2, and a fibered knot's is +-1\n"),
        ({"name": "k", "fibered": False, "alexander": "t^2 + 3"},
         "error[structure]: {where}: invalid Alexander polynomial for 'k': "
         "not symmetric under t -> 1/t; value at t=1 is 4, expected +-1\n"),
        ({"name": "x", "fibered": False, "seifert": [[1, 0], [0, 1]]},
         "error[seifert]: {where}: not a knot Seifert matrix: det(V - V^T) = 0, expected +-1\n"),
        ({"name": "x", "fibered": False, "seifert": [[1, 0], [0]]},
         "error[structure]: {where}: Seifert matrix must be square, got row of length 1 in size 2\n"),
    ])
    def test_list_knot_file_entry_error_names_its_index(self, capsys, monkeypatch, tmp_path, entry, line):
        """A registration failure in entry [1] of a list knot file names the file and the index, through
        ``knot register`` and through ``SWFOLD_KNOT_TABLE``, as the same entry inline in a spec names its
        field; an earlier bad entry is the one reported."""
        valid = {"name": "ok", "fibered": False, "alexander": "3*t - 5 + 3*t^-1"}
        path, spec = tmp_path / "list.json", tmp_path / "spec.json"
        path.write_text(json.dumps([valid, entry]))
        spec.write_text(json.dumps({"base": "t3", "knots": [entry]}))
        assert main(["knot", "register", str(path)]) == 2
        assert capsys.readouterr() == ("", line.format(where=f"{path}[1]"))
        assert main(["sw3", str(spec)]) == 2
        assert capsys.readouterr() == ("", line.format(where=f"{spec}.knots[0]"))
        monkeypatch.setenv(ENV_KNOT_TABLE, str(path))
        assert main(["knot", "list"]) == 2
        assert capsys.readouterr() == ("", line.format(where=f"{path}[1]"))
        path.write_text(json.dumps([{**valid, "fibered": 1}, entry]))
        assert main(["knot", "list"]) == 2
        assert capsys.readouterr() == ("", f"error[spec]: {path}[0].fibered: expected true or false\n")

    def test_bad_alexander_text_names_its_field_in_both_knot_routes(self, capsys, tmp_path):
        """A knot file and a spec's inline knot name the ``alexander`` field once, and the error keeps
        its class, its exit code and its position within the field's text."""
        knot = {"name": "y", "fibered": False, "alexander": "t + x"}
        path, spec = tmp_path / "k.json", tmp_path / "spec.json"
        path.write_text(json.dumps(knot))
        spec.write_text(json.dumps({"base": "t3", "knots": [knot]}))
        message = "{where}.alexander: unknown variable 'x'; basis is (t) (at position 4)"
        assert main(["knot", "register", str(path)]) == 2
        self.assert_one_error_line(capsys, "error[name]: " + message.format(where=path) + "\n")
        assert main(["sw3", str(spec)]) == 2
        self.assert_one_error_line(capsys, "error[name]: " + message.format(where=f"{spec}.knots[0]") + "\n")
        for call, where in ((lambda: load_spec(str(spec)), f"{spec}.knots[0]"),
                            (lambda: build_manifold({"base": "t3", "knots": [knot]}, BUILTIN_KNOTS), "spec.knots[0]")):
            with pytest.raises(UnknownVariableError) as err:
                call()
            assert (str(err.value), err.value.position) == (message.format(where=where), 4)

    def test_field_path_rule_re_raises_the_error_itself(self):
        """``_at`` prefixes the message of the error object it is given, so a class whose constructor
        takes no bare message keeps its fields, and a parse error its position."""
        lookup, parse = KnotLookupError("x", ["3_1"]), UnknownVariableError("unknown variable 'x'", position=4)
        assert _at("m.json.sums[0].knot", lookup) is lookup and lookup.name == "x"
        assert str(lookup) == "m.json.sums[0].knot: unknown knot 'x'; available: 3_1"
        assert _at("k.json.alexander", parse) is parse and parse.position == 4
        assert str(parse) == "k.json.alexander: unknown variable 'x' (at position 4)"

    def test_unknown_registration_field(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"name": "k", "fibered": True,
                                    "alexander": "t - 1 + t^-1", "seifret": [[-1, 1], [0, -1]]}))
        assert main(["knot", "register", str(path)]) == 2
        self.assert_one_error_line(capsys, f"error[spec]: {path}.seifret: unknown field")

    @pytest.mark.parametrize("key", ["\r", "a\nb", "\u2028", "\x85", "\ud800"])
    def test_unknown_field_that_would_break_the_line_is_named_by_repr(self, capsys, tmp_path, key):
        spec, knots = tmp_path / "spec.json", tmp_path / "k.json"
        spec.write_text(json.dumps({"base": "t3", key: None}))
        knots.write_text(json.dumps({"name": "k", "fibered": True, "alexander": "1", key: None}))
        assert main(["sw3", str(spec)]) == 2
        self.assert_one_error_line(capsys, f"error[spec]: {spec}.{key!r}: unknown field")
        assert main(["knot", "register", str(knots)]) == 2
        self.assert_one_error_line(capsys, f"error[spec]: {knots}.{key!r}: unknown field")


class TestKnotTableEnv:
    def test_extra_table_loaded(self, monkeypatch, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps([{"name": "env_knot", "fibered": False,
                                     "alexander": "3*t - 5 + 3*t^-1"}]))
        monkeypatch.setenv(ENV_KNOT_TABLE, str(path))
        record = run(["knot", "show", "env_knot"])
        assert "alexander = 3*t^-1 - 5 + 3*t" in record.text

    def test_spec_can_use_env_knot(self, monkeypatch, tmp_path):
        table = tmp_path / "extra.json"
        table.write_text(json.dumps({"name": "env_knot2", "fibered": True,
                                     "seifert": [[-1, 1], [0, -1]]}))
        monkeypatch.setenv(ENV_KNOT_TABLE, str(table))
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"base": "t3",
                                    "sums": [{"knot": "env_knot2", "meridian": "m2"}]}))
        record = run(["sw3", str(spec), "--quiet"])
        assert record.text == "sw3 = m2^-2 - 1 + m2^2"

    def test_load_spec_sees_env_knots(self, monkeypatch, tmp_path):
        table = tmp_path / "extra.json"
        table.write_text(json.dumps({"name": "tw3", "fibered": False,
                                     "alexander": "3*t - 5 + 3*t^-1"}))
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"base": "t3", "sums": [{"knot": "tw3", "meridian": "m1"}]}))
        monkeypatch.setenv(ENV_KNOT_TABLE, str(table))
        assert str(load_spec(str(spec)).sw3) == "3*m1^-2 - 5 + 3*m1^2"
        monkeypatch.delenv(ENV_KNOT_TABLE)
        with pytest.raises(KnotLookupError):
            load_spec(str(spec))

    def test_main_writes_utf8_bytes_to_an_ascii_stdout(self, monkeypatch, tmp_path):
        """``main`` writes the bytes ``emit`` made, so a knot name outside ASCII reaches an
        ASCII-encoded stdout as its UTF-8 bytes instead of failing to encode."""
        table = tmp_path / "extra.json"
        table.write_text(json.dumps({"name": "nœud", "fibered": True, "alexander": "t - 1 + t^-1"}))
        monkeypatch.setenv(ENV_KNOT_TABLE, str(table))
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
        assert main(["knot", "list"]) == 0
        assert raw.getvalue().endswith("nœud  fibered=true  alexander = t^-1 - 1 + t\n".encode())


class TestKnotScope:
    """Results depend on the spec and the command, not on what ran before."""

    BUILTIN_LIST = (
        "3_1  fibered=true  alexander = t^-1 - 1 + t\n"
        "4_1  fibered=true  alexander = -t^-1 + 3 - t\n"
        "5_2  fibered=false  alexander = 2*t^-1 - 3 + 2*t\n"
    )

    def test_inline_knots_are_scoped_to_their_spec(self, tmp_path, capsys):
        for i, delta in enumerate(("3*t - 5 + 3*t^-1", "2*t - 3 + 2*t^-1")):
            spec = tmp_path / f"spec{i}.json"
            spec.write_text(json.dumps({
                "base": "t3",
                "knots": [{"name": "k", "fibered": False, "alexander": delta}],
                "sums": [{"knot": "k", "meridian": "m1"}],
            }))
            assert main(["sw3", str(spec), "--quiet"]) == 0
        assert capsys.readouterr().out == (
            "sw3 = 3*m1^-2 - 5 + 3*m1^2\n"
            "sw3 = 2*m1^-2 - 3 + 2*m1^2\n"
        )
        assert main(["knot", "list"]) == 0
        assert capsys.readouterr().out == self.BUILTIN_LIST

    def test_registered_knot_reaches_later_commands(self, tmp_path):
        knots = tmp_path / "k.json"
        knots.write_text(json.dumps({"name": "reg_k", "fibered": True,
                                     "seifert": [[-1, 1], [0, -1]]}))
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"base": "t3", "sums": [{"knot": "reg_k", "meridian": "m3"}]}))
        run(["knot", "register", str(knots)])
        assert run(["sw3", str(spec), "--quiet"]).text == "sw3 = m3^-2 - 1 + m3^2"
        assert str(load_spec(str(spec)).sw3) == "m3^-2 - 1 + m3^2"

    def test_env_table_applies_per_command(self, monkeypatch, tmp_path, capsys):
        table = tmp_path / "extra.json"
        table.write_text(json.dumps({"name": "env_k", "fibered": False,
                                     "alexander": "3*t - 5 + 3*t^-1"}))
        monkeypatch.setenv(ENV_KNOT_TABLE, str(table))
        assert main(["knot", "show", "env_k", "--quiet"]) == 0
        monkeypatch.delenv(ENV_KNOT_TABLE)
        assert main(["knot", "show", "env_k"]) == 2
        assert capsys.readouterr().err.startswith("error[lookup]: unknown knot 'env_k'")
        assert main(["knot", "list"]) == 0
        assert capsys.readouterr().out == self.BUILTIN_LIST


class TestParserReuse:
    """One parser serves every command of a process, and changes none of their bytes."""

    COMMANDS = (
        ("search", "--box", "2"),  # usage error: the spec is missing
        ("search", FIVE2_PAIR, "--box", "2"),
        ("knot", "list"),
        ("fold", FIG8_PAIR, "--chi", "4*m1"),
    )

    @staticmethod
    def _fresh_process(argv):
        env = {k: v for k, v in os.environ.items() if k != ENV_KNOT_TABLE}
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        code = "import sys; from swfold.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              env=env, cwd=REPO, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_command_sequence_matches_fresh_processes(self, monkeypatch, capsysbinary):
        cli.build_parser.cache_clear()
        monkeypatch.delenv(ENV_KNOT_TABLE, raising=False)
        in_process = []
        for argv in self.COMMANDS:
            try:
                status = main(list(argv))
            except SystemExit as exc:
                status = exc.code
            out, err = capsysbinary.readouterr()
            in_process.append((status, out, err))
        assert [status for status, _, _ in in_process] == [2, 0, 0, 0]
        assert in_process == [self._fresh_process(argv) for argv in self.COMMANDS]
        assert cli.build_parser.cache_info().misses == 1
