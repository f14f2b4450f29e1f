"""Exception taxonomy shared by all modules.

Every failure mode named in an operation contract maps to one class here so
callers (and the CLI exit-code mapping) can dispatch on type alone.
"""


class QZerosError(Exception):
    """Base class for all library errors."""


class ConfigError(QZerosError):
    """Malformed configuration or usage (CLI exit code 2)."""


class NonGenericParameter(QZerosError):
    """A parameter sits on (or within tolerance of) a pole of the coefficient formula."""

    def __init__(self, name, pole, detail=""):
        self.name = name
        self.pole = pole
        msg = f"parameter {name} is non-generic: hits pole {pole}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InvalidDegree(QZerosError):
    """Polynomial degree N < 1."""


class OverflowRisk(QZerosError):
    """An intermediate magnitude left the safe binary64 range; extended precision advised."""


class ZeroLeadingCoefficient(QZerosError):
    """Monic rescale impossible: leading coefficient is zero."""


class NoConvergence(QZerosError):
    """Iteration budget exhausted before meeting the stopping tolerance."""


class DegenerateZeros(QZerosError):
    """Zero separation certificate failed (near-coincident roots; rejected, not resolved)."""


class DegreeMismatch(QZerosError):
    """Polynomial degree does not match the parameter tuple's N."""


class IndexCollision(QZerosError):
    """Kernel excluding two indices was called with n == m."""


class EigenNoConvergence(QZerosError):
    """The dense eigensolver failed to converge."""


class LengthMismatch(QZerosError):
    """Spectrum matching called with lists of different lengths."""


class RepeatedEigenvalue(QZerosError):
    """Two closed-form eigenvalues coincide; the eigenvector basis degenerates."""


class CollisionDetected(QZerosError):
    """Two flowing zeros approached within the collision threshold."""


class StepUnderflow(QZerosError):
    """The adaptive integrator could not take a step within its error budget."""


class ConsistencyWarning(UserWarning):
    """Real- and imaginary-axis difference quotients disagree beyond tolerance."""
