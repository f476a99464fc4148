"""Streaming distributionally robust decisions with anytime certificates.

Maintain, as samples arrive one by one, a decision whose worst-case
expected cost over a transport-budget ball around the running empirical
measure is certified at every moment: certificates are produced to a gap
tolerance, decisions follow inexact subgradients of the certified value,
and an optional incremental ball cover compresses the sample support.
"""

from .ambiguity import (
    ConcentrationParams,
    ConfidenceSchedule,
    radius,
    study_schedule,
)
from .certificates import (
    CertificateInterrupted,
    CertificateResult,
    DataWindow,
    WarmState,
    adapt,
    certificate_value,
    generate,
    revalidate,
)
from .cover import Cover
from .model import CostModel, Tolerances, quadratic_model
from .runner import (
    ArrivalQueue,
    CoverConfig,
    RunConfig,
    RunEvent,
    RunResult,
    run,
)
from .simplex import (
    AfwaResult,
    ConcavityError,
    SolverError,
    afwa_maximize,
    point_search,
)
from .stream import (
    FixedPeriod,
    MixtureComponent,
    MixtureSpec,
    SamplePoint,
    UniformRandomPeriod,
    estimate_jstar,
    sample_stream,
)
from .subgrad import scaled_step, step_length, subgradient

__version__ = "0.1.0"

__all__ = [
    "AfwaResult",
    "ArrivalQueue",
    "CertificateInterrupted",
    "CertificateResult",
    "ConcavityError",
    "ConcentrationParams",
    "ConfidenceSchedule",
    "CostModel",
    "Cover",
    "CoverConfig",
    "DataWindow",
    "FixedPeriod",
    "MixtureComponent",
    "MixtureSpec",
    "RunConfig",
    "RunEvent",
    "RunResult",
    "SamplePoint",
    "SolverError",
    "Tolerances",
    "UniformRandomPeriod",
    "WarmState",
    "adapt",
    "afwa_maximize",
    "certificate_value",
    "estimate_jstar",
    "generate",
    "point_search",
    "quadratic_model",
    "radius",
    "revalidate",
    "run",
    "sample_stream",
    "scaled_step",
    "step_length",
    "study_schedule",
    "subgradient",
]
