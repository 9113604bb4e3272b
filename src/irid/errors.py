"""Exception types shared across the package.

Four classes, one per builtin family: ``ParamError`` for invalid input
(arguments, request fields, an empty output path, too little data),
``EvaluationError`` for a computation that broke down (a vanishing
denominator, a degenerate least-squares system, a non-finite value or
iterate, a pole at z = -1 or coefficients out of the double range under
the bilinear map, a magnitude below the dB scale) and
``PipelineStageError`` for either raised inside a pipeline stage.  All
derive from ``IridError``.  File output raises the builtin OSError, which
names the path.  The command line exits 2 on a ``ParamError``, which
request checks raise before any stage runs, and 1 on any other
``IridError`` or an OSError.
"""


class IridError(Exception):
    """Base class for every error raised by this package."""


class ParamError(IridError, ValueError):
    """Invalid argument or request field, an argument outside an
    operation's domain, or too few samples for a fit."""


class EvaluationError(IridError, ArithmeticError):
    """A computation broke down: a denominator vanished, a system was
    singular, or a value or iterate came out NaN or Inf."""


class PipelineStageError(IridError, RuntimeError):
    """Wraps an error from one pipeline stage ("nilt", "fit" or
    "conversion") so callers can tell where a run failed."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage
        self.cause = cause
