"""Alexander polynomials from Seifert matrices, and the knot table."""

import json
import pathlib
import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from swfold.alexander import (
    BUILTIN_KNOTS,
    KNOT_BASIS,
    KnotRecord,
    SeifertMatrix,
    _int_det,
    alexander_from_seifert,
    knot_from_alexander,
    knot_from_seifert,
    load_knot_file,
    record_from_dict,
    validate_alexander,
)
from swfold.cli import SCHEMA_DIR
from swfold.errors import KnotLookupError, NotSeifertError, SpecFileError, StructuralError
from swfold.laurent import LaurentPoly, from_text


def poly(text):
    return from_text(text, KNOT_BASIS)


# -- oracle: det(tV - V^T) by the Leibniz permutation sum over coefficient lists --


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _leibniz_det_coeffs(V):
    """Coefficients of det(tV - V^T), lowest power first, summed over permutations."""
    n = len(V)
    total = [0] * (n + 1)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [-1 if inversions % 2 else 1]
        for i, j in enumerate(perm):
            term = _poly_mul(term, [-V[j][i], V[i][j]])
        total = [a + b for a, b in zip(total, term)]
    return total


def _expected_alexander(coeffs):
    """Center det(tV - V^T) on its own support and fix the sign; the error text if not a knot."""
    at_one = sum(coeffs)
    if at_one not in (1, -1):
        return f"not a knot Seifert matrix: det(V - V^T) = {at_one}, expected +-1"
    support = [k for k, c in enumerate(coeffs) if c]
    lo, hi = min(support), max(support)
    assert (lo + hi) % 2 == 0
    return LaurentPoly(KNOT_BASIS, {((2 * k - lo - hi) // 2,): at_one * c for k, c in enumerate(coeffs)})


def _alexander_or_error(V):
    try:
        return alexander_from_seifert(V)
    except NotSeifertError as exc:
        return str(exc)


def _knot_matrix(symmetric_part):
    """S + B with S symmetric and B block-diagonal [[0, 1], [0, 0]]: V - V^T is unimodular."""
    n = len(symmetric_part)
    return tuple(
        tuple(symmetric_part[i][j] + int(j == i + 1 and i % 2 == 0) for j in range(n)) for i in range(n)
    )


@st.composite
def seifert_candidates(draw):
    n = draw(st.integers(0, 5))
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    n -= n % 2
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    return _knot_matrix([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])


def _torus_two(g):
    """Bidiagonal Seifert matrix of T(2, 2g+1): -1 on the diagonal, +1 above it."""
    n = 2 * g
    return tuple(tuple(-1 if i == j else int(j == i + 1) for j in range(n)) for i in range(n))


def _congruent(V, rng):
    """P V P^T for a random unimodular P built from elementary row operations."""
    n = len(V)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-2, 2)
        P[i] = [a + k * b for a, b in zip(P[i], P[j])]
    PV = [[sum(P[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(tuple(sum(PV[i][k] * P[j][k] for k in range(n)) for j in range(n)) for i in range(n))


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

    @given(seifert_candidates())
    def test_agrees_with_leibniz_oracle(self, V):
        result = _alexander_or_error(V)
        assert result == _expected_alexander(_leibniz_det_coeffs(V))
        if isinstance(result, LaurentPoly):
            assert result.conjugate() == result

    @given(st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(st.sampled_from((-2, 0, 0, 1, 3)), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_integer_determinant_agrees_with_leibniz(self, A):
        # The t^n coefficient of det(tA - A^T) is det(A).  A row swap only
        # flips the sign of det(tV - V^T), which the normalization hides,
        # so the swap sign is checked here on the integer determinant.
        assert _int_det(A) == _leibniz_det_coeffs(A)[-1]

    def test_singular_matrix_with_zero_leading_coefficient(self):
        # det(tV - V^T) = t: the t^0 and t^2 coefficients both vanish
        assert alexander_from_seifert(((0, 1), (0, 0))) == poly("1")

    @pytest.mark.parametrize("g", range(1, 21))
    def test_torus_knots_t2_up_to_size_40(self, g):
        expected = LaurentPoly(KNOT_BASIS, {(k,): (-1) ** (g - k) for k in range(-g, g + 1)})
        assert alexander_from_seifert(_torus_two(g)) == expected

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_twist_family(self, k):
        expected = LaurentPoly(KNOT_BASIS, {(1,): k, (0,): 1 - 2 * k, (-1,): k})
        assert alexander_from_seifert(((1, 1), (0, k))) == expected

    def test_unimodular_congruence_invariance(self):
        rng = random.Random(5)
        for V in (_torus_two(3), ((1, 1), (0, 2)), _knot_matrix([[1, 2, 0, -1], [2, 0, 1, 1],
                                                                  [0, 1, -2, 3], [-1, 1, 3, 1]])):
            delta = alexander_from_seifert(V)
            for _ in range(5):
                assert alexander_from_seifert(_congruent(V, rng)) == delta

    def test_agrees_with_sympy_berkowitz(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(11)
        for n in (2, 4) * 6:  # symbolic size-6 determinants take about a second each
            S = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    S[i][j] = S[j][i] = rng.randint(-4, 4)
            V = _knot_matrix(S)
            M = t * sympy.Matrix(V) - sympy.Matrix(V).T
            coeffs = sympy.Poly(M.det(method="berkowitz"), t).all_coeffs()[::-1]
            coeffs = [int(c) for c in coeffs] + [0] * (n + 1 - len(coeffs))
            assert alexander_from_seifert(V) == _expected_alexander(coeffs)


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

    def test_records_are_compared_only_against_a_different_record(self, monkeypatch):
        compared = []
        monkeypatch.setattr(KnotRecord, "__eq__", lambda a, b: compared.append(a.name) or True)
        assert BUILTIN_KNOTS.with_records([]) is BUILTIN_KNOTS
        stored = BUILTIN_KNOTS.lookup("3_1")
        table = BUILTIN_KNOTS.with_records([stored, knot_from_seifert("unknot", True, ())])
        assert table.names() == ("3_1", "4_1", "5_2", "unknot") and compared == []
        table.with_records([knot_from_seifert("3_1", True, ((-1, 1), (0, -1)))])
        assert compared == ["3_1"]


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

    @pytest.mark.parametrize("data", [
        {"name": "k", "fibered": True, "alexander": "t - 1 + t^-1", "extra": 1},
        {"name": "k", "fibered": False, "alexander": "3*t - 5 + 3*t^-1", "seifret": [[1, 1], [0, 2]]},
        {"name": "k", "fibered": True, "seifert": [[-1, 1], [0, -1]], "Alexander": "t - 1 + t^-1"},
        {"name": "k", "fibered": True, "seifert": [], "": None},
    ])
    def test_unknown_fields_rejected_like_the_schema(self, data):
        schema = json.loads((pathlib.Path(SCHEMA_DIR) / "knot-registration.schema.json").read_text())
        assert not Draft202012Validator(schema).is_valid(data)
        unknown = next(key for key in data if key not in ("name", "fibered", "seifert", "alexander"))
        with pytest.raises(SpecFileError, match=f"^where\\.{unknown}: unknown field$"):
            record_from_dict(data, "where")
        valid = {key: value for key, value in data.items() if key != unknown}
        assert Draft202012Validator(schema).is_valid(valid)
        assert record_from_dict(valid, "where").name == "k"

    @pytest.mark.parametrize("name", [
        "x\ud800", "\udfff", "x\nobstructed = true", "k\r", "tab\there", "\x00", "del\x7f", "nel\x85",
        "c1\x9f", "line\u2028sep", "para\u2029sep",
    ])
    def test_name_must_be_one_line_of_printable_text(self, name):
        schema = json.loads((pathlib.Path(SCHEMA_DIR) / "knot-registration.schema.json").read_text())
        data = {"name": name, "fibered": True, "alexander": "t - 1 + t^-1"}
        assert not Draft202012Validator(schema).is_valid(data)
        with pytest.raises(SpecFileError, match=r"^where\.name: expected one line of printable text, "):
            record_from_dict(data, "where")

    @pytest.mark.parametrize("name", ["3_1", "k a", "\u00e9", "\xa0nbsp", "\U0001f600", "\ufeff", "#~"])
    def test_printable_names_pass_code_and_schema(self, name):
        schema = json.loads((pathlib.Path(SCHEMA_DIR) / "knot-registration.schema.json").read_text())
        data = {"name": name, "fibered": True, "alexander": "t - 1 + t^-1"}
        assert Draft202012Validator(schema).is_valid(data)
        assert record_from_dict(data, "where").name == name

    @pytest.mark.parametrize("data, message", [
        (["k"], "where: expected an object, got list"),
        ("k", "where: expected an object, got str"),
        ({"name": "k", "fibered": True, "seifert": "[[1]]"}, "where.seifert: expected a list of integer rows"),
        ({"name": "k", "fibered": True, "seifert": [1, 2]}, "where.seifert: expected a list of integer rows"),
        ({"name": "k", "fibered": True, "alexander": ["t"]}, "where.alexander: expected a polynomial string"),
    ])
    def test_shape_errors(self, data, message):
        with pytest.raises(SpecFileError) as err:
            record_from_dict(data, "where")
        assert str(err.value) == message

    def test_load_file_missing_path(self, tmp_path):
        with pytest.raises(SpecFileError):
            load_knot_file(str(tmp_path / "absent.json"))

    def test_load_file_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecFileError):
            load_knot_file(str(path))
