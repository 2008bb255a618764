"""Exception types shared across the package."""


class ContactSDEError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(ContactSDEError):
    """Malformed expression source.  Carries the offending position and token."""

    def __init__(self, message: str, position: int, token: str = ""):
        self.position = position
        self.token = token
        super().__init__(f"{message} at position {position}" + (f" (token {token!r})" if token else ""))


class UnknownIdentifier(ContactSDEError):
    """An identifier that is neither a declared name nor a known function."""

    def __init__(self, name: str, position: int = -1):
        self.name = name
        self.position = position
        where = f" at position {position}" if position >= 0 else ""
        super().__init__(f"unknown identifier {name!r}{where}")


class DomainError(ContactSDEError):
    """Evaluation outside a function's domain (log of non-positive value,
    division by zero, fractional power of a negative base, sin/cos of an
    infinite value).  Carries the offending expression node when available."""

    def __init__(self, message: str, node=None):
        self.node = node
        super().__init__(message if node is None else f"{message} in {node!r}")


class SingularChartPoint(ContactSDEError):
    """State too close to a coordinate singularity of the active chart."""


class InvalidStep(ContactSDEError):
    """Non-positive step size, or a time span the step does not divide."""


class IndivisibleFactor(ContactSDEError):
    """Coarsening factor does not divide the number of steps."""


class MidpointDivergence(ContactSDEError):
    """Fixed-point iteration of the midpoint scheme failed to converge."""


class WrongIntegralCount(ContactSDEError):
    """Integrability check called with the wrong number of first integrals."""


class MissingTangentData(ContactSDEError):
    """A trajectory without tangent-flow data was passed where the flow
    Jacobian and conformal factor are required."""


class NumericalFailure(ContactSDEError):
    """An operation produced non-finite values.  ``operation`` names it; the
    CLI prints both as "numerical failure in <operation>: <message>"."""

    def __init__(self, operation: str, message: str):
        self.operation = operation
        super().__init__(message)


class ConfigError(ContactSDEError):
    """Invalid run configuration.  The message names the offending field."""
