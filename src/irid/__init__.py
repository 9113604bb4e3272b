"""Impulse-response-invariant discretization of complex-order fractional
integrators: exact frequency/time-domain evaluation, FFT-based inverse
Laplace transform, Steiglitz-McBride rational fitting and an end-to-end
pipeline with comparison reports."""

from .cfoi import (CfoiParams, cfoi_analytic_impulse, cfoi_freq_grid,
                   cfoi_freq_response, cfoi_transfer, gamma_complex)
from .errors import (EvaluationError, IoError, IridError, ParamError,
                     PipelineStageError)
from .lti import (ContinuousTransferFunction, DiscreteTransferFunction,
                  FrequencyGrid, FrequencyResponseSeries, TimeSeries,
                  continuous_freq_response, continuous_impulse,
                  discrete_freq_response, discrete_impulse,
                  is_stable_discrete)
from .nilt import nilt
from .pipeline import (ComparisonMetrics, IridRequest, IridResult,
                       ModelErrors, compare_frequency, compare_impulse,
                       format_summary, irid_fcoi, write_outputs)
from .sysid import bilinear_d2c, stmcb_fit

__version__ = "0.1.0"
