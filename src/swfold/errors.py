"""Exception hierarchy shared across the package.

Two families matter to callers: ``StructuralError`` for malformed values
(wrong basis, bad syntax, bad shapes, bad files) and ``DomainError`` for
mathematically invalid parameters.  The command line maps them to exit
codes 2 and 1 respectively, and prints the ``code`` of the most-derived
class as ``error[code]: message``.
"""


class SwfoldError(Exception):
    """Base class for every error raised by this package."""

    code = "structure"


class StructuralError(SwfoldError):
    """Malformed value: basis mismatch, wrong vector length, bad matrix shape."""


class ParseError(StructuralError):
    """Text that does not conform to the polynomial grammar."""

    code = "parse"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariableError(ParseError):
    """Identifier that is not a variable of the target basis."""

    code = "name"


class KnotLookupError(StructuralError):
    """Knot name missing from the table; carries the available names."""

    code = "lookup"

    def __init__(self, name: str, available):
        self.name = name
        self.available = tuple(available)
        listing = ", ".join(self.available) if self.available else "(none)"
        super().__init__(f"unknown knot {name!r}; available: {listing}")


class NotSeifertError(StructuralError):
    """Matrix with det(V - V^T) != +-1: not a knot Seifert matrix."""

    code = "seifert"


class SpecFileError(StructuralError):
    """Manifold or knot file violating its schema; message carries the field path."""

    code = "spec"


class DomainError(SwfoldError):
    """Parameter outside the mathematical domain of an operation."""

    code = "domain"


class HypothesisError(DomainError):
    """Fold requested on a manifold where the b_+ >= 2 hypothesis fails."""

    code = "hypothesis"
