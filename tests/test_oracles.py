import math

import numpy as np
import pytest

from halfwave import (
    EvolutionProblem,
    GridSpec,
    PlaneWaveSpec,
    TorusField,
    evolve,
    galerkin_reference,
    plane_wave_solution,
)
from halfwave.norms import charge, l4_norm, momentum, sobolev_norm
from halfwave.oracles import (
    RationalState,
    inflation_constant,
    szego_explicit_modes,
    szego_inflation_state,
)
from halfwave.problems import linear_symbol, nonlinearity

from conftest import random_analytic_field


ALL_PROBLEMS = [
    EvolutionProblem.half_wave(),
    EvolutionProblem.half_wave_scaled(0.3),
    EvolutionProblem.half_wave_gauged(0.3, 0.04),
    EvolutionProblem.szego_plain(),
    EvolutionProblem.szego_transport(0.3, 0.04),
    EvolutionProblem.free_half_wave(),
]


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.kind)
def test_plane_wave_t0_is_data(problem, grid16):
    spec = PlaneWaveSpec(0.2 + 0.1j, 2, problem)
    assert plane_wave_solution(spec, 0.0, grid16) == TorusField.from_modes(
        grid16, {2: 0.2 + 0.1j}
    )


def test_szego_spec_requires_nonnegative_mode():
    with pytest.raises(ValueError):
        PlaneWaveSpec(1.0, -1, EvolutionProblem.szego_plain())


def test_plane_wave_phases(grid16):
    # half-wave: omega = |k| + |c|^2
    spec = PlaneWaveSpec(0.1, 1, EvolutionProblem.half_wave())
    got = plane_wave_solution(spec, 10.0, grid16).mode(1)
    assert got == pytest.approx(0.1 * np.exp(-1j * 1.01 * 10.0))
    # plain Szego at k=0: i dw/dt = |c|^2 w
    spec = PlaneWaveSpec(1.0, 0, EvolutionProblem.szego_plain())
    got = plane_wave_solution(spec, np.pi, grid16).mode(0)
    assert got == pytest.approx(np.exp(-1j * np.pi))


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.kind)
def test_plane_wave_satisfies_discrete_residual(problem, grid16):
    """Centered difference of the closed form matches the right-hand side
    to second order in the step."""
    spec = PlaneWaveSpec(0.3, 2, problem)
    t = 0.7
    symbol, term = linear_symbol(problem, grid16), nonlinearity(problem, grid16)
    errs = []
    for h in (1e-3, 5e-4):
        fwd = plane_wave_solution(spec, t + h, grid16)
        bwd = plane_wave_solution(spec, t - h, grid16)
        mid = plane_wave_solution(spec, t, grid16)
        diff = (fwd.coeff - bwd.coeff) / (2.0 * h)
        rhs = -1j * symbol * mid.coeff + term(mid.coeff)
        errs.append(np.max(np.abs(diff - rhs)))
    assert errs[0] <= 2e-6
    assert errs[0] / max(errs[1], 1e-300) == pytest.approx(4.0, rel=0.1)


def test_galerkin_matches_plane_wave(grid16):
    problem = EvolutionProblem.half_wave()
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    got = galerkin_reference(problem, u0, 5.0, dt=2e-4)
    want = plane_wave_solution(PlaneWaveSpec(0.1, 1, problem), 5.0, grid16)
    assert np.max(np.abs(got.coeff - want.coeff)) <= 1e-8


def test_galerkin_matches_linear_phases(grid16, rng):
    u0 = random_analytic_field(grid16, rng, decay=3.0)
    got = galerkin_reference(EvolutionProblem.free_half_wave(), u0, 3.0, dt=1e-4)
    want = u0.coeff * np.exp(-1j * np.abs(grid16.modes()) * 3.0)
    assert np.max(np.abs(got.coeff - want)) <= 1e-8


def test_galerkin_agrees_with_etdrk4(grid16, rng):
    """Two code paths sharing only the field type agree on a generic run."""
    u0 = random_analytic_field(grid16, rng, scale=0.4)
    problem = EvolutionProblem.half_wave()
    reference = galerkin_reference(problem, u0, 5.0, dt=2e-4)
    main = evolve(problem, u0, 5.0, 0.005)
    assert np.max(np.abs(reference.coeff - main.coeff)) <= 1e-6


def test_galerkin_charge_drift_is_second_order(grid16, rng):
    """Explicit midpoint is not conservative: its charge drift shrinks at
    an observed order near two, which separates it from the fourth-order
    main path (whose drift halving ratio is ~16)."""
    u0 = random_analytic_field(grid16, rng, scale=1.2, decay=1.5)
    problem = EvolutionProblem.szego_plain()
    q0 = charge(u0)
    checkpoints = (0.5, 1.0, 1.5, 2.0)
    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        worst = max(
            abs(charge(galerkin_reference(problem, u0, t, dt=dt)) - q0)
            for t in checkpoints
        )
        drifts.append(worst)
    slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(drifts), 1)[0]
    assert 1.5 <= slope <= 3.5


def test_galerkin_preconditions(grid16):
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    with pytest.raises(ValueError):
        galerkin_reference(EvolutionProblem.half_wave(), u0, 1.0, dt=0.05)
    big = TorusField.zeros(GridSpec.with_padding(64))
    with pytest.raises(ValueError):
        galerkin_reference(EvolutionProblem.half_wave(), big, 1.0, dt=1e-3)


def _inflation_ratio(delta, s=1.5, eps=0.1):
    t_star = math.pi / (2.0 * eps**2 * delta)
    state = szego_inflation_state(eps, delta, t_star)
    return state.sobolev_norm(s) * delta ** (2 * s - 1) / eps


def test_rational_flow_conserves_charge_momentum_and_l4():
    """At unit size (the eps-scaled run only rescales time and norms),
    over [0, t*] with t* = pi / (2 delta)."""
    delta = 0.3
    t_star = math.pi / (2.0 * delta)
    state = RationalState(delta, 1.0, 0.0)
    first = (state.charge(), state.momentum(), state.l4_fourth())
    worst = 0.0
    for i in range(1, 11):
        state = szego_inflation_state(1.0, delta, i * t_star / 10)
        now = (state.charge(), state.momentum(), state.l4_fourth())
        worst = max(worst, max(abs(a - b) / b for a, b in zip(now, first)))
    assert worst <= 1e-10
    # the run reaches the near-pole that the inflation law rests on
    assert state.lam == pytest.approx(delta**2 / 4, rel=0.01)
    assert abs(state.c) ** 2 == pytest.approx(state.lam**2, rel=1e-10)


def test_rational_flow_matches_pseudospectral_szego():
    n = 128
    grid = GridSpec.with_padding(n)
    u0 = TorusField.from_modes(grid, {1: 1.0, 0: 0.5})
    pde = evolve(EvolutionProblem.szego_plain(), u0, 1.0, 0.005)
    oracle = szego_explicit_modes([0.5, 1.0], 1.0, n)
    assert np.max(np.abs(pde.coeff[n:] - oracle)) <= 1e-8
    assert np.max(np.abs(pde.coeff[:n])) == 0.0


def test_rational_norms_match_field_norms():
    """Series norms equal the band sums of the same state on a band wide
    enough for its tail (the inflation state at delta = 0.3)."""
    state = szego_inflation_state(0.1, 0.3, math.pi / (2.0 * 0.01 * 0.3))
    n = 4000
    grid = GridSpec(n, 4 * n + 1)
    coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
    coeff[n:] = state.modes(n)
    field = TorusField(grid, coeff)
    for s in (0.5, 1.0, 1.5):
        assert state.sobolev_norm(s) == pytest.approx(sobolev_norm(field, s), rel=1e-12)
    assert state.charge() == pytest.approx(charge(field), rel=1e-12)


def test_rational_l4_closed_form_matches_quadrature():
    state = RationalState(0.3 + 0.1j, 0.7 - 0.2j, 0.6 + 0.5j)
    n = 256
    coeff = np.zeros(2 * n + 1, dtype=np.complex128)
    coeff[n:] = state.modes(n)
    field = TorusField(GridSpec.with_padding(n), coeff)
    assert state.l4_fourth() == pytest.approx(l4_norm(field) ** 4, rel=1e-12)
    assert state.momentum() == pytest.approx(momentum(field), rel=1e-12)


def test_rational_inflation_ratio_tends_to_constant():
    c_s = inflation_constant(1.5)
    assert c_s == pytest.approx(4.0 * math.sqrt(6.0), rel=1e-14)
    assert abs(_inflation_ratio(0.05) - c_s) <= 1e-3


def test_rational_state_preconditions():
    with pytest.raises(ValueError):
        RationalState(0.0, 1.0, 1.0)


@pytest.mark.parametrize("n", [64, 128, 256])
def test_szego_flows_match_explicit_formula(n, rng):
    """Plain Szego on random analytic data of degree 8 against the
    explicit formula; the transport flow against its translated, gauged
    and slowed form v_k(t) = e^{-ikt} e^{2i eps^2 q0 t} w_k(eps^2 t)."""
    grid = GridSpec.with_padding(n)
    u0 = random_analytic_field(grid, rng, support=8, scale=0.5)
    w0, t, eps, q0 = u0.coeff[n:n + 9], 3.0, 0.7, 0.3
    plain = evolve(EvolutionProblem.szego_plain(), u0, t, 0.005)
    transport = evolve(EvolutionProblem.szego_transport(eps, q0), u0, t, 0.005)
    exact = szego_explicit_modes(w0, t, n)
    moved = (np.exp(-1j * np.arange(n + 1) * t + 2j * eps**2 * q0 * t)
             * szego_explicit_modes(w0, eps**2 * t, n))
    assert np.max(np.abs(plain.coeff[n:] - exact)) <= 1e-10
    assert np.max(np.abs(transport.coeff[n:] - moved)) <= 1e-10
    assert not plain.coeff[:n].any() and not transport.coeff[:n].any()
