"""pinchlab: a numerical laboratory for the curvature-eigenvalue
reaction flow in dimension three.

The package integrates the ordered-eigenvalue reaction system, encodes
the logarithmic pinching functions and preserved regions attached to
it, and ships a verifier that stress-tests every inequality,
invariance, and curvature-bound claim at desk scale.
"""

__version__ = "0.1.0"

from .cone_sets import (
    MembershipResult,
    SetKind,
    SetSpec,
    margin_array,
    membership,
    sample_set,
    standard_trigger_events,
)
from .eigen_ode import (
    RHO_MAX,
    EigenTriple,
    FlowParams,
    isotropic_solution,
    rhs_array,
)
from .errors import (
    BlowUpReached,
    DomainError,
    EmptyRegion,
    HypothesisViolated,
    OutOfRange,
    SamplingExhausted,
)
from .integrator import (
    BLOWUP,
    REACHED_END,
    STEP_LIMIT,
    EventRecord,
    IntegratorConfig,
    TerminalStatus,
    Trajectory,
    integrate,
)
from .pinch_functions import (
    EstimateVariant,
    estimate_rhs_array,
    f_domain_min,
    f_inverse,
    f_pinch,
    f_range_min,
    lambda_pinch,
    lambda_pinch_rate,
    xi_pinch,
    xi_pinch_rate,
)
from .verifier import (
    DerivReport,
    DerivSuiteReport,
    EstimateReport,
    EstimateSuiteReport,
    InequalityKind,
    InvarianceReport,
    QuantityKind,
    ScanReport,
    check_estimate,
    check_invariance,
    deriv_suite,
    derivative_consistency,
    estimate_suite,
    invariance_is_claimed,
    scan_inequality,
)

__all__ = [
    "__version__",
    "RHO_MAX",
    "EigenTriple",
    "FlowParams",
    "rhs_array",
    "isotropic_solution",
    "EstimateVariant",
    "f_pinch",
    "f_inverse",
    "f_domain_min",
    "f_range_min",
    "lambda_pinch",
    "lambda_pinch_rate",
    "xi_pinch",
    "xi_pinch_rate",
    "estimate_rhs_array",
    "IntegratorConfig",
    "Trajectory",
    "TerminalStatus",
    "EventRecord",
    "integrate",
    "REACHED_END",
    "BLOWUP",
    "STEP_LIMIT",
    "SetKind",
    "SetSpec",
    "MembershipResult",
    "membership",
    "margin_array",
    "sample_set",
    "standard_trigger_events",
    "InequalityKind",
    "QuantityKind",
    "ScanReport",
    "InvarianceReport",
    "EstimateReport",
    "EstimateSuiteReport",
    "DerivReport",
    "DerivSuiteReport",
    "scan_inequality",
    "check_invariance",
    "invariance_is_claimed",
    "check_estimate",
    "estimate_suite",
    "derivative_consistency",
    "deriv_suite",
    "DomainError",
    "BlowUpReached",
    "OutOfRange",
    "SamplingExhausted",
    "EmptyRegion",
    "HypothesisViolated",
]
