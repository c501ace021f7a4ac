"""The shipped JSON Schemas: each definition written once, and agreement with the code's shape checks.

``build_manifold`` and ``record_from_dict`` hand-code the shape rules that
``manifold-spec.schema.json`` and ``knot-registration.schema.json`` state.
For a fault of shape alone, the schema refuses exactly what the code
refuses.  The one known divergence is JSON Schema's ``integer``, which
admits an integral float such as ``2.0``; the code refuses it.
"""

import pytest

from swfold.alexander import BUILTIN_KNOTS, record_from_dict
from swfold.cli import build_manifold
from swfold.errors import SpecFileError, StructuralError

from conftest import SCHEMAS, schema_validator

SPEC_SCHEMA = schema_validator("manifold-spec.schema.json")
REGISTRATION_SCHEMA = schema_validator("knot-registration.schema.json")


def build_spec(data):
    return build_manifold(data, BUILTIN_KNOTS)


def build_registration(data):
    return record_from_dict(data, "where")


TREFOIL = {"name": "k", "fibered": True, "seifert": [[-1, 1], [0, -1]]}
FIG8_TEXT = {"name": "k", "fibered": True, "alexander": "-t + 3 - t^-1"}

#: Specs whose only fault, if any, is their shape; True for the well-formed ones.
SPECS = [
    ({"base": "t3"}, True),
    ({"base": {"surface_x_s1": 2}}, True),
    ({"base": "t3", "sums": [], "knots": []}, True),
    ({"base": "t3", "sums": [{"knot": "3_1", "meridian": "m1"}, {"knot": "4_1", "meridian": "m2"}]}, True),
    ({"base": "t3", "knots": [TREFOIL, dict(FIG8_TEXT, name="j")], "sums": [{"knot": "k", "meridian": "m3"}]}, True),
    (["t3"], False),
    ("t3", False),
    (None, False),
    ({}, False),
    ({"sums": []}, False),
    ({"base": "t3", "bogus": 1}, False),
    ({"base": "t4"}, False),
    ({"base": None}, False),
    ({"base": {}}, False),
    ({"base": {"surface_x_s1": 2, "extra": 1}}, False),
    ({"base": {"surface_x_s1": "two"}}, False),
    ({"base": {"surface_x_s1": True}}, False),
    ({"base": {"surface_x_s1": None}}, False),
    ({"base": "t3", "sums": {"knot": "3_1", "meridian": "m1"}}, False),
    ({"base": "t3", "sums": None}, False),
    ({"base": "t3", "sums": ["3_1"]}, False),
    ({"base": "t3", "sums": [{"knot": "3_1"}]}, False),
    ({"base": "t3", "sums": [{"knot": "3_1", "meridian": "m1", "extra": 1}]}, False),
    ({"base": "t3", "sums": [{"knot": 31, "meridian": "m1"}]}, False),
    ({"base": "t3", "sums": [{"knot": "3_1", "meridian": ["m1"]}]}, False),
    ({"base": "t3", "knots": {}}, False),
    ({"base": "t3", "knots": None}, False),
    ({"base": "t3", "knots": ["k"]}, False),
    ({"base": "t3", "knots": [{"name": "k", "fibered": True}]}, False),
    ({"base": "t3", "knots": [dict(TREFOIL, extra=1)]}, False),
]

#: Registration objects whose only fault, if any, is their shape; True for the well-formed ones.
REGISTRATIONS = [
    (TREFOIL, True),
    (FIG8_TEXT, True),
    ({"name": "unknot", "fibered": False, "seifert": []}, True),
    (["k"], False),
    ("k", False),
    (None, False),
    ({"fibered": True, "seifert": []}, False),
    ({"name": "", "fibered": True, "seifert": []}, False),
    ({"name": 5, "fibered": True, "seifert": []}, False),
    ({"name": "k\n", "fibered": True, "seifert": []}, False),
    ({"name": "k", "seifert": []}, False),
    ({"name": "k", "fibered": "yes", "seifert": []}, False),
    ({"name": "k", "fibered": 1, "seifert": []}, False),
    ({"name": "k", "fibered": True}, False),
    ({"name": "k", "fibered": True, "seifert": [], "alexander": "1"}, False),
    (dict(TREFOIL, extra=1), False),
    ({"name": "k", "fibered": True, "seifert": "[[1]]"}, False),
    ({"name": "k", "fibered": True, "seifert": None}, False),
    ({"name": "k", "fibered": True, "seifert": [1, 2]}, False),
    ({"name": "k", "fibered": True, "seifert": [[-1, "1"], [0, -1]]}, False),
    ({"name": "k", "fibered": True, "seifert": [[-1, True], [0, -1]]}, False),
    ({"name": "k", "fibered": True, "alexander": ["t"]}, False),
    ({"name": "k", "fibered": True, "alexander": None}, False),
]

#: Passed by the schema, refused by the code: JSON Schema's ``integer`` holds integral floats.
KNOWN_DIVERGENCES = [
    (build_spec, SPEC_SCHEMA, {"base": {"surface_x_s1": 2.0}}),
    (build_registration, REGISTRATION_SCHEMA, {"name": "k", "fibered": True, "seifert": [[-1.0, 1], [0, -1]]}),
]


def code_accepts(build, data, refusal) -> bool:
    """Whether ``build(data)`` returns; only a ``refusal`` counts as refusing, any other error propagates."""
    try:
        build(data)
    except refusal:
        return False
    return True


@pytest.mark.parametrize("data, well_formed", SPECS)
def test_spec_schema_refuses_what_build_manifold_refuses(data, well_formed):
    assert SPEC_SCHEMA.is_valid(data) is code_accepts(build_spec, data, SpecFileError) is well_formed


@pytest.mark.parametrize("data, well_formed", REGISTRATIONS)
def test_registration_schema_refuses_what_record_from_dict_refuses(data, well_formed):
    assert REGISTRATION_SCHEMA.is_valid(data) is code_accepts(build_registration, data, StructuralError) is well_formed


@pytest.mark.parametrize("build, schema, data", KNOWN_DIVERGENCES, ids=["genus 2.0", "Seifert entry -1.0"])
def test_an_integral_float_is_the_one_known_divergence(build, schema, data):
    assert schema.is_valid(data)
    assert not code_accepts(build, data, StructuralError)


def test_each_definition_is_written_once():
    defined = [name for schema in SCHEMAS.values() for name in schema.get("$defs", {})]
    assert sorted(defined) == ["knot", "registration"]
    # knot show and knot register $ref the one knot row, in output-knot-list.schema.json
    bad = {"name": "k", "fibered": True, "alexander": "1"}  # no "seifert", which the row requires
    assert not schema_validator("output-knot-show.schema.json").is_valid({"command": "knot-show", "knot": bad})
    assert not schema_validator("output-knot-register.schema.json").is_valid(
        {"command": "knot-register", "registered": [bad]})
