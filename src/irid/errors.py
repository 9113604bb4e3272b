"""Exception types shared across the package."""


class IridError(Exception):
    """Base class for every error raised by this package."""


class ParamError(IridError, ValueError):
    """Invalid constructor argument or request field."""


class DomainError(IridError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class SingularInput(IridError, ValueError):
    """Evaluation requested exactly at a singularity."""


class DegreeError(IridError, ValueError):
    """Polynomial degree too low for the requested operation."""


class DenominatorZero(IridError, ArithmeticError):
    """Transfer-function denominator vanishes at an evaluation point."""


class ConfigError(IridError, ValueError):
    """Invalid solver configuration."""


class EvaluationError(IridError, ArithmeticError):
    """A transfer function or an impulse response evaluated to NaN or Inf."""


class InsufficientData(IridError, ValueError):
    """Too few samples for the requested fit."""


class SingularSystem(IridError, ArithmeticError):
    """Degenerate least-squares system with no usable solution."""


class NonFiniteIterate(IridError, ArithmeticError):
    """An iteration produced non-finite coefficients."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class PoleAtMinusOne(IridError, ValueError):
    """Discrete denominator has a root at z = -1, where the bilinear map
    sends a pole to infinity."""


class GridMismatch(IridError, ValueError):
    """Two series do not share the same sampling grid."""


class ZeroMagnitude(IridError, ArithmeticError):
    """Frequency-response magnitude too small for a dB comparison."""


class IoError(IridError, OSError):
    """File output failed; the message carries the offending path."""


class PipelineStageError(IridError, RuntimeError):
    """Wraps an error from one pipeline stage ("nilt", "fit" or
    "conversion") so callers can tell where a run failed."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage
        self.cause = cause
