"""Exact Seiberg-Witten polynomial calculator for free circle actions.

Builds 3-manifolds (torus, surface products, fiber sums with knot
complements) together with their SW polynomials as exact integer Laurent
polynomials, folds them over cosets of a nontorsion Euler class to
obtain the SW polynomials of 4-manifolds carrying free circle actions,
and decides the unit-coefficient symplectic obstruction.
"""

from .alexander import (
    BUILTIN_KNOTS,
    KNOT_BASIS,
    KnotRecord,
    KnotTable,
    SeifertMatrix,
    alexander_from_seifert,
    knot_from_alexander,
    knot_from_seifert,
    load_knot_file,
    record_from_dict,
    validate_alexander,
)
from .errors import (
    DomainError,
    HypothesisError,
    KnotLookupError,
    NotSeifertError,
    ParseError,
    SpecFileError,
    StructuralError,
    SwfoldError,
    UnknownVariableError,
)
from .fold import (
    EulerClass,
    FoldedSW,
    QuotientLattice,
    canonical_rep,
    circle_bundle_sw_closed_form,
    circle_bundle_sw_direct,
    equal_up_to_sign,
    euler_vector_from_text,
    fold,
    fold_bruteforce,
    fold_poly,
    fold_poly_bruteforce,
)
from .laurent import Basis, LaurentPoly, from_text, monomial, to_text
from .manifolds import (
    CIRCLE_BASIS,
    T3_BASIS,
    ThreeManifold,
    fiber_sum,
    require_b_plus,
    surface_times_circle,
    three_torus,
)
from .obstruction import (
    SearchResult,
    colliding_classes,
    euler_search,
    stabilization_note,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_KNOTS",
    "Basis",
    "CIRCLE_BASIS",
    "DomainError",
    "EulerClass",
    "FoldedSW",
    "HypothesisError",
    "KNOT_BASIS",
    "KnotLookupError",
    "KnotRecord",
    "KnotTable",
    "LaurentPoly",
    "NotSeifertError",
    "ParseError",
    "QuotientLattice",
    "SearchResult",
    "SeifertMatrix",
    "SpecFileError",
    "StructuralError",
    "SwfoldError",
    "T3_BASIS",
    "ThreeManifold",
    "UnknownVariableError",
    "alexander_from_seifert",
    "canonical_rep",
    "circle_bundle_sw_closed_form",
    "circle_bundle_sw_direct",
    "colliding_classes",
    "equal_up_to_sign",
    "euler_search",
    "euler_vector_from_text",
    "fiber_sum",
    "fold",
    "fold_bruteforce",
    "fold_poly",
    "fold_poly_bruteforce",
    "from_text",
    "knot_from_alexander",
    "knot_from_seifert",
    "load_knot_file",
    "monomial",
    "record_from_dict",
    "require_b_plus",
    "stabilization_note",
    "surface_times_circle",
    "three_torus",
    "to_text",
    "validate_alexander",
]
