"""Exception types shared across the package."""

__all__ = [
    "DimensionError",
    "SchemaError",
    "StructureError",
    "SingularMatrixError",
    "NearPoleError",
    "SamplePlacementError",
    "NotRealizableError",
]


class DimensionError(ValueError):
    """Matrix arguments have incompatible or disallowed dimensions."""


class SchemaError(ValueError):
    """A JSON payload does not match any supported schema, or a field is malformed."""


class StructureError(ValueError):
    """A structural invariant (orthogonality, symmetry, ...) is violated.

    ``residuals`` maps condition names to the offending residual values.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular to working precision."""


class NearPoleError(ValueError):
    """Transfer-function evaluation was requested too close to a pole."""

    def __init__(self, point, eigenvalue):
        super().__init__(
            f"evaluation point {point} is within the guard distance of pole "
            f"{eigenvalue}"
        )
        self.point = point
        self.eigenvalue = eigenvalue


class SamplePlacementError(RuntimeError):
    """Could not place the requested number of sample points away from poles."""


class NotRealizableError(RuntimeError):
    """Synthesis was attempted on a system that fails the realizability test.

    ``report`` carries the check report that triggered the refusal, when one
    is available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
