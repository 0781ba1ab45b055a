"""Exception types shared across the package."""


class CyclicWaveError(Exception):
    """Base class for all package errors."""


class ParameterError(CyclicWaveError, ValueError):
    """A parameter violates a documented precondition."""


class IntegrationFailure(CyclicWaveError, RuntimeError):
    """An integration did not resolve its solution."""


class QuadratureError(CyclicWaveError, RuntimeError):
    """Quadrature did not converge on some interval."""


class SingularMetricError(CyclicWaveError, RuntimeError):
    """Metric is numerically singular at a point."""


class ResolutionError(CyclicWaveError, RuntimeError):
    """A transform does not resolve the field (its tail is not negligible)."""


class ExhaustedSearchError(CyclicWaveError, RuntimeError):
    """A search ran out of candidates; carries the best value seen."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NotApplicableError(CyclicWaveError, RuntimeError):
    """The requested construction does not apply to these inputs."""
