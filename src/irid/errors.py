"""Exception types shared across the package.

Four classes, one per builtin family: ``ParamError`` for invalid input,
``EvaluationError`` for a computation that broke down and
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
    operation's domain, an empty output path or too few samples."""


class EvaluationError(IridError, ArithmeticError):
    """A computation broke down: a vanishing denominator, all-zero data to
    fit or a reference that underflows to zero, a fit none of whose
    iterates has a finite output error, a least-squares solve that LAPACK
    reports as failed, a pole at z = -1 or coefficients out of the double
    range under the bilinear map, a magnitude below the dB scale, or a
    computed array with a NaN or Inf in it, among them a qd tail whose
    first value is beyond the double range.  The last is always raised
    by ``irid.lti._all_finite``: the message ends "(sample k)", k the
    first bad flat index."""


class PipelineStageError(IridError, RuntimeError):
    """Wraps an error from one pipeline stage ("nilt", "fit",
    "conversion" or "compare") so callers can tell where a run failed."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage
        self.cause = cause
