"""Alexander polynomials from Seifert matrices, and the knot table."""

import json

import pytest

from swfold.alexander import (
    BUILTIN_KNOTS,
    KNOT_BASIS,
    SeifertMatrix,
    alexander_from_seifert,
    knot_from_alexander,
    knot_from_seifert,
    load_knot_file,
    validate_alexander,
)
from swfold.errors import KnotLookupError, NotSeifertError, SpecFileError, StructuralError
from swfold.laurent import from_text


def poly(text):
    return from_text(text, KNOT_BASIS)


class TestAlexanderFromSeifert:
    def test_unknot_empty_matrix(self):
        assert alexander_from_seifert(()) == poly("1")

    def test_trefoil(self):
        # det(tV - V^T) = t^2 - t + 1, centered and already +1 at t=1
        assert alexander_from_seifert(((-1, 1), (0, -1))) == poly("t - 1 + t^-1")

    def test_figure_eight(self):
        # det(tV - V^T) = -t^2 + 3t - 1
        assert alexander_from_seifert(((1, 1), (0, -1))) == poly("-t + 3 - t^-1")

    def test_five_two(self):
        # det(tV - V^T) = 2t^2 - 3t + 2
        assert alexander_from_seifert(((1, 1), (0, 2))) == poly("2*t - 3 + 2*t^-1")

    def test_genus_two_matrix(self):
        # 4x4 Seifert matrix; the result must be symmetric with value 1 at t=1
        V = ((-1, 1, 0, 0), (0, -1, 1, 0), (0, 0, -1, 1), (0, 0, 0, -1))
        delta = alexander_from_seifert(V)
        assert delta.conjugate() == delta
        assert delta.eval_ones() == 1

    def test_rejects_non_seifert(self):
        with pytest.raises(NotSeifertError):
            alexander_from_seifert(((1, 0), (0, 1)))  # det(V - V^T) = 0

    def test_rejects_non_square(self):
        with pytest.raises(StructuralError):
            alexander_from_seifert(((1, 1),))

    def test_simultaneous_permutation_invariance(self):
        V = ((1, 1), (0, 2))
        permuted = ((2, 0), (1, 1))  # swap both rows and both columns
        assert alexander_from_seifert(V) == alexander_from_seifert(permuted)

    def test_accepts_seifert_matrix_object(self):
        matrix = SeifertMatrix(((-1, 1), (0, -1)))
        assert matrix.size == 2
        assert alexander_from_seifert(matrix) == poly("t - 1 + t^-1")


class TestSeifertMatrix:
    def test_rejects_ragged(self):
        with pytest.raises(StructuralError):
            SeifertMatrix(((1, 2), (3,)))

    def test_rejects_non_integer(self):
        with pytest.raises(StructuralError):
            SeifertMatrix(((1.5,),))


class TestKnotTable:
    def test_shipped_names(self):
        assert BUILTIN_KNOTS.names() == ("3_1", "4_1", "5_2")

    def test_trefoil_record(self):
        record = BUILTIN_KNOTS.lookup("3_1")
        assert record.fibered is True
        assert record.alexander == poly("t - 1 + t^-1")

    def test_figure_eight_record(self):
        record = BUILTIN_KNOTS.lookup("4_1")
        assert record.fibered is True
        assert record.alexander == poly("-t + 3 - t^-1")

    def test_five_two_record(self):
        record = BUILTIN_KNOTS.lookup("5_2")
        assert record.fibered is False
        assert record.alexander == poly("2*t - 3 + 2*t^-1")

    def test_every_entry_symmetric_and_unit(self):
        for name in BUILTIN_KNOTS.names():
            delta = BUILTIN_KNOTS.lookup(name).alexander
            assert delta.conjugate() == delta
            assert delta.eval_ones() == 1

    def test_unknown_knot_lists_available(self):
        with pytest.raises(KnotLookupError) as err:
            BUILTIN_KNOTS.lookup("9_99")
        assert "3_1" in str(err.value)
        assert err.value.available == ("3_1", "4_1", "5_2")

    def test_reregistering_identical_is_noop(self):
        record = knot_from_seifert("3_1", True, ((-1, 1), (0, -1)))
        table = BUILTIN_KNOTS.with_records([record])
        assert table.names() == BUILTIN_KNOTS.names()
        assert table.lookup("3_1") == BUILTIN_KNOTS.lookup("3_1")

    def test_conflicting_registration_rejected(self):
        with pytest.raises(StructuralError):
            BUILTIN_KNOTS.with_records([knot_from_seifert("3_1", False, ((1, 1), (0, 2)))])
        with pytest.raises(StructuralError):
            BUILTIN_KNOTS.with_records([
                knot_from_alexander("k", False, "3*t - 5 + 3*t^-1"),
                knot_from_alexander("k", False, "2*t - 3 + 2*t^-1"),
            ])

    def test_with_records_leaves_the_table_unchanged(self):
        unknot = knot_from_seifert("unknot", True, ())
        table = BUILTIN_KNOTS.with_records([unknot])
        assert table.lookup("unknot") == unknot
        assert table.names() == ("3_1", "4_1", "5_2", "unknot")
        assert BUILTIN_KNOTS.names() == ("3_1", "4_1", "5_2")


class TestValidateAlexander:
    def test_symmetric_unit(self):
        check = validate_alexander(poly("t - 1 + t^-1"))
        assert check.symmetric and check.value_at_one == 1 and check.passes

    def test_fails_symmetry(self):
        check = validate_alexander(poly("t^2 + t"))
        assert not check.symmetric and not check.passes

    def test_twist_knot_polynomial(self):
        check = validate_alexander(poly("2*t - 3 + 2*t^-1"))
        assert check.passes and check.value_at_one == 1

    def test_minus_one_at_one_still_passes_gate(self):
        check = validate_alexander(poly("-t + 1 - t^-1"))
        assert check.symmetric and check.value_at_one == -1 and check.passes

    def test_rejects_multivariable(self, b2):
        with pytest.raises(StructuralError):
            validate_alexander(from_text("m1", b2))


class TestRegistration:
    def test_from_polynomial_normalizes_sign(self):
        record = knot_from_alexander("test_negative", True, "-t + 1 - t^-1")
        assert record.alexander == poly("t - 1 + t^-1")
        assert record.seifert is None

    def test_from_polynomial_rejects_asymmetric(self):
        with pytest.raises(StructuralError):
            knot_from_alexander("bad", True, "t^2 + t")

    def test_from_polynomial_rejects_nonunit(self):
        with pytest.raises(StructuralError):
            knot_from_alexander("bad", True, "t + 1 + t^-1")  # value 3 at t=1

    def test_load_file_single_object(self, tmp_path):
        path = tmp_path / "knot.json"
        path.write_text(json.dumps({"name": "my_unknot", "fibered": True, "seifert": []}))
        records = load_knot_file(str(path))
        assert len(records) == 1
        assert BUILTIN_KNOTS.with_records(records).lookup("my_unknot").alexander == poly("1")

    def test_load_file_list_with_polynomial_form(self, tmp_path):
        path = tmp_path / "knots.json"
        path.write_text(
            json.dumps(
                [
                    {"name": "k_a", "fibered": False, "alexander": "3*t - 5 + 3*t^-1"},
                    {"name": "k_b", "fibered": True, "seifert": [[-1, 1], [0, -1]]},
                ]
            )
        )
        records = load_knot_file(str(path))
        assert [r.name for r in records] == ["k_a", "k_b"]
        assert BUILTIN_KNOTS.with_records(records).lookup("k_a").alexander == poly("3*t - 5 + 3*t^-1")

    def test_load_file_field_errors(self, tmp_path):
        cases = [
            {"fibered": True, "seifert": []},                      # missing name
            {"name": "x", "seifert": []},                          # missing fibered
            {"name": "x", "fibered": "yes", "seifert": []},        # wrong type
            {"name": "x", "fibered": True},                        # neither form
            {"name": "x", "fibered": True, "seifert": [], "alexander": "1"},  # both forms
        ]
        for i, data in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(data))
            with pytest.raises(SpecFileError):
                load_knot_file(str(path))

    def test_load_file_missing_path(self, tmp_path):
        with pytest.raises(SpecFileError):
            load_knot_file(str(tmp_path / "absent.json"))

    def test_load_file_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecFileError):
            load_knot_file(str(path))
