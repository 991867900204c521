"""Exception hierarchy shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class InvalidCurveError(DomainError):
    """A tradeoff curve violates its defining invariants."""


class ConfigurationError(DomainError):
    """A numerical configuration (grid, mesh, range) is unusable."""


class AccuracyError(RuntimeError):
    """A computation exceeded its accuracy budget (e.g. truncated mass)."""

