"""Exact Seiberg-Witten polynomial calculator for free circle actions.

Builds 3-manifolds (torus, surface products, fiber sums with knot
complements) together with their SW polynomials as exact integer Laurent
polynomials, folds them over cosets of a nontorsion Euler class to
obtain the SW polynomials of 4-manifolds carrying free circle actions,
and decides the unit-coefficient symplectic obstruction.

The public names, ``__all__``, are exactly the names imported below from
the submodules; the submodules themselves are not among them.
"""

from types import ModuleType as _ModuleType

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
    circle_bundle_sw_closed_form,
    circle_bundle_sw_direct,
    equal_up_to_sign,
    euler_vector_from_text,
    fold,
)
from .laurent import Basis, LaurentPoly, from_text, to_text
from .manifolds import (
    CIRCLE_BASIS,
    T3_BASIS,
    ThreeManifold,
    fiber_sum,
    require_b_plus,
    surface_times_circle,
    three_torus,
)
from .obstruction import colliding_classes, stabilization_note

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
