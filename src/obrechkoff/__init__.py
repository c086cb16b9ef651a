"""Two-step symmetric Obrechkoff methods of algebraic order 12.

A configurable-precision implementation of the classical method and its two
trigonometrically fitted variants (PL', PL''), together with the
characteristic-equation analysis machinery (stability pair, phase lag,
truncation-error brackets, periodicity scanning), three benchmark initial
value problems, and a benchmark CLI.
"""

from .context import Context, make_context
from .coefficients import (
    CoefficientSet,
    MethodId,
    classical_coefficients,
    coefficients,
    plprime_closed,
    pldoubleprime_closed,
)
from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    ObrechkoffError,
    OutsidePeriodicityError,
    SingularParameterError,
    StepFailureError,
)
from .integrator import (
    IntegrationResult,
    StepperConfig,
    StepState,
    StepWeights,
    integrate,
    startup,
    step,
)
from .problems import PROBLEMS, ProblemDef, duffing, get_problem, linear_forced, rational_problem
from .stability import (
    LeadingTermFit,
    PeriodicityResult,
    StabilityPair,
    fit_leading_term,
    lte_brackets,
    periodicity_interval,
    phase_lag,
    stability_pair,
)

__all__ = [
    "Context", "make_context",
    "CoefficientSet", "MethodId", "classical_coefficients", "coefficients",
    "plprime_closed", "pldoubleprime_closed",
    "ObrechkoffError", "ConfigurationError", "DomainError", "FitError",
    "OutsidePeriodicityError", "SingularParameterError", "StepFailureError",
    "IntegrationResult", "StepperConfig", "StepState", "StepWeights", "integrate",
    "startup", "step",
    "PROBLEMS", "ProblemDef", "duffing", "get_problem", "linear_forced",
    "rational_problem",
    "LeadingTermFit", "PeriodicityResult", "StabilityPair", "fit_leading_term",
    "lte_brackets", "periodicity_interval", "phase_lag", "stability_pair",
]

__version__ = "1.0.0"
