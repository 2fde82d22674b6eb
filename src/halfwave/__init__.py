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
from .integrate import BlowUpError, StepperConfig, evolve, make_stepper, trajectory
from .norms import besov_norm, charge, l4_norm, momentum, sobolev_norm
from .operators import (
    conjugate,
    cubic_term,
    inner,
    invert_d0,
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
    CLOSED_FORM,
    DIRECT_SUM,
    F,
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
