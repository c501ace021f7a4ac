import json
import pathlib
import random

import pytest
from hypothesis import settings
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from swfold import cli
from swfold.alexander import BUILTIN_KNOTS
from swfold.fold import FoldedSW, QuotientLattice, fold, fold_poly_bruteforce
from swfold.laurent import Basis, LaurentPoly
from swfold.manifolds import ThreeManifold, fiber_sum, three_torus

settings.register_profile("deterministic", derandomize=True, max_examples=60)
settings.load_profile("deterministic")

#: Every shipped schema under its ``$id``, so a ``$ref`` from one file to another resolves
#: without a fetch: the spec schema's inline knots are the registration schema's.
SCHEMAS = {path.name: json.loads(path.read_text()) for path in pathlib.Path(cli.SCHEMA_DIR).glob("*.json")}
SCHEMA_REGISTRY = Registry().with_resources(
    (schema["$id"], Resource.from_contents(schema)) for schema in SCHEMAS.values()
)


def schema_validator(schema_name: str) -> Draft202012Validator:
    """Validator for one shipped schema, with the others in its registry."""
    return Draft202012Validator(SCHEMAS[schema_name], registry=SCHEMA_REGISTRY)


@pytest.fixture(autouse=True)
def fresh_session_knots(monkeypatch):
    """Start every test from the built-in knots, whatever `knot register` ran before."""
    monkeypatch.setattr(cli, "session_knots", BUILTIN_KNOTS)


@pytest.fixture
def b1():
    return Basis(("t",))


@pytest.fixture
def b2():
    return Basis(("m1", "m2"))


@pytest.fixture
def b3():
    return Basis(("m1", "m2", "m3"))


def fold_bruteforce(manifold: ThreeManifold, chi) -> FoldedSW:
    """The record ``fold(manifold, chi)`` should give, its terms folded by ``fold_poly_bruteforce``."""
    folded = fold(manifold, chi)
    if folded.product_case:
        return folded
    terms = fold_poly_bruteforce(manifold.sw3, QuotientLattice(folded.chi)).terms()
    return FoldedSW(folded.chi, manifold.basis, terms, len(terms) == len(manifold.sw3))


def monomial(basis: Basis, coeff: int, exp) -> LaurentPoly:
    """Single-term polynomial ``coeff * prod(v_i^exp_i)``; zero if coeff is 0."""
    return LaurentPoly(basis, [(exp, coeff)])


def coefficients(poly: LaurentPoly) -> tuple[int, ...]:
    """Coefficients in canonical term order."""
    return tuple(c for _, c in poly.terms())


def random_poly(rng: random.Random, basis: Basis, max_terms: int = 8,
                max_exp: int = 6, max_coeff: int = 9) -> LaurentPoly:
    """Random sparse polynomial for property suites (rank <= 3 scale)."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(-max_exp, max_exp) for _ in range(basis.rank))
        coeff = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c != 0])
        terms[exp] = coeff
    return LaurentPoly(basis, terms)


def random_basis(rng: random.Random) -> Basis:
    rank = rng.randint(1, 3)
    return Basis(tuple(f"x{i}" for i in range(1, rank + 1)))


@pytest.fixture
def fig8_pair():
    """Two figure-eight complements glued onto the first two torus meridians."""
    m = three_torus()
    m = fiber_sum(m, [(BUILTIN_KNOTS.lookup("4_1"), "m1")])
    return fiber_sum(m, [(BUILTIN_KNOTS.lookup("4_1"), "m2")])


@pytest.fixture
def five2_pair():
    """Two 5_2 complements glued onto the first two torus meridians."""
    m = three_torus()
    m = fiber_sum(m, [(BUILTIN_KNOTS.lookup("5_2"), "m1")])
    return fiber_sum(m, [(BUILTIN_KNOTS.lookup("5_2"), "m2")])
