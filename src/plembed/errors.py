"""Exception types shared across the package, the range check of closed forms, and the triangle slack."""

import math

TRIANGLE_SLACK = 1e-12  # relative slack of triangle inequalities on float inputs, and of the spherical limits


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class DegenerateQuadrupleError(DomainError):
    """A quadruple has a point metrically between two of the others."""


class ParseError(ValueError):
    """Malformed input document."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateEdgeError(ParseError):
    """The same edge is listed more than once."""


class NonpositiveLengthError(ParseError):
    """An edge length is zero or negative."""


class UnknownVertexError(ValueError):
    """Vertex label or index not present in the graph."""


class MissingKappaError(ValueError):
    """No curvature prescribed for a vertex that requires one."""


class MeshError(ValueError):
    """Mesh is unusable for the requested computation."""


def in_range(compute, what: str, tiny: float = 0.0, problem: str = "is out of the float range") -> float:
    """The float ``compute()``, or DomainError f"{what} {problem}" when it overflows or is below ``tiny`` in size."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not tiny <= abs(value) < math.inf:
        raise DomainError(f"{what} {problem}")
    return value
