"""Exception types shared across the package."""


class BetadensError(Exception):
    """Base class for all package errors."""


class DomainError(BetadensError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateSample(BetadensError, ValueError):
    """A sample has zero spread where positive spread is required."""


class UnsupportedDegree(BetadensError, ValueError):
    """Requested polynomial degree exceeds the implementation bound."""


class CapacityError(BetadensError, ValueError):
    """An exact enumeration would exceed the memory budget."""


class EmptyEstimate(BetadensError, ValueError):
    """All histogram bins considered by an operation are empty."""


class ConfigError(BetadensError, ValueError):
    """An experiment configuration failed to parse or validate."""


class TrialError(BetadensError, RuntimeError):
    """A Monte Carlo trial failed; the message names the trial and its seed."""
