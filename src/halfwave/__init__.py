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
from .integrate import BlowUpError, evolve, make_stepper, trajectory
from .norms import besov_norm, charge, l4_norm, momentum, sobolev_norm
from .operators import (
    cubic_term,
    inner,
    product,
    project_minus,
    project_plus,
    triple_product,
)
from .oracles import (
    PlaneWaveSpec,
    RationalState,
    galerkin_reference,
    inflation_constant,
    plane_wave_solution,
    quartic_sum,
    quartic_sum_field,
    szego_explicit_modes,
    szego_inflation_state,
)
from .problems import (
    EvolutionProblem,
    default_time_step,
    energy,
)
from .normalform import (
    F,
    H0,
    R,
    RTILDE,
    chi_flow,
    coefficient_identity_max_error,
    enumerate_resonances,
    functional_value,
    normal_form_flow,
    poisson_bracket,
    resonances_from_cases,
    taylor_residual,
    vector_field,
)

__version__ = "0.1.0"
