"""Pseudospectral toolkit for the half-wave equation on the torus, its
effective cubic Szego dynamics, Hankel-spectrum diagnostics and the
quartic normal form connecting them."""

from .fields import GridSpec, TorusField, fast_transform_length
from .hankel import (
    EigensolverError,
    HankelTruncation,
    SpectralSummary,
    build_hankel,
    peller_ratio,
    spectral_summary,
)
from .integrate import (
    IFRK4,
    MIDPOINT,
    BlowUpError,
    InvariantRecord,
    StepperConfig,
    evolve,
    make_stepper,
    trajectory,
)
from .norms import BESOV, L1, L2, L4, MOMENTUM, SOBOLEV, besov_norm, charge, momentum, norm, sobolev_norm
from .operators import (
    ABS_D,
    DERIVATIVE,
    INVERT_D0,
    apply_multiplier,
    conjugate,
    cubic_term,
    inner,
    product,
    project_minus,
    project_plus,
    reflect,
    triple_product,
)
from .oracles import (
    PlaneWaveSpec,
    RationalState,
    galerkin_reference,
    inflation_constant,
    plane_wave_solution,
    szego_inflation_state,
    szego_rational_flow,
)
from .problems import (
    EvolutionProblem,
    default_time_step,
    energy,
    gauge_transform,
    nonlinear_term,
    rhs,
)
from .normalform import (
    BACKWARD,
    CLOSED_FORM,
    DIRECT_SUM,
    F,
    FORWARD,
    H0,
    QuadrupleKey,
    R,
    RTILDE,
    chi_flow,
    classify,
    coefficient_identity_max_error,
    enumerate_resonances,
    f_coeff,
    functional_value,
    normal_form_flow,
    phase,
    poisson_bracket,
    resonances_from_cases,
    taylor_residual,
    vector_field,
)

__version__ = "0.1.0"
