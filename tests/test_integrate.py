import pickle
import warnings

import numpy as np
import pytest

from halfwave import (
    BlowUpError,
    EvolutionProblem,
    GridSpec,
    PlaneWaveSpec,
    StepperConfig,
    TorusField,
    energy,
    evolve,
    gauge_transform,
    plane_wave_solution,
    trajectory,
)
from halfwave import integrate
from halfwave.experiments import NumericalFailure, _richardson
from halfwave.norms import charge

from conftest import random_analytic_field, random_field


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, monitor_stride=0)


def test_plane_wave_long_run(grid16):
    problem = EvolutionProblem.half_wave()
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    final = evolve(problem, u0, 10.0, StepperConfig(dt=0.01))
    exact = plane_wave_solution(PlaneWaveSpec(0.1, 1, problem), 10.0, grid16)
    assert np.max(np.abs(final.coeff - exact.coeff)) <= 1e-10


def test_szego_single_mode_exact(grid16):
    problem = EvolutionProblem.szego_plain()
    c, k, t = 0.4 + 0.2j, 3, 7.0
    u0 = TorusField.from_modes(grid16, {k: c})
    final = evolve(problem, u0, t, StepperConfig(dt=0.01))
    want = c * np.exp(-1j * abs(c) ** 2 * t)
    assert final.mode(k) == pytest.approx(want, abs=1e-11)


def test_free_flow_translates_coefficients(grid16, rng):
    u0 = random_analytic_field(grid16, rng)
    t = 3.0
    final = evolve(EvolutionProblem.free_half_wave(), u0, t, StepperConfig(dt=0.05))
    want = u0.coeff * np.exp(-1j * np.abs(grid16.modes()) * t)
    assert np.max(np.abs(final.coeff - want)) <= 1e-12


def test_gauge_equivalence_over_time(grid16, rng):
    """Scaled flow then gauge phase equals the gauged flow directly."""
    u0 = random_analytic_field(grid16, rng, scale=0.5)
    eps, t = 0.3, 10.0
    q0 = charge(u0)
    cfg = StepperConfig(dt=0.01)
    scaled = evolve(EvolutionProblem.half_wave_scaled(eps), u0, t, cfg)
    gauged = evolve(EvolutionProblem.half_wave_gauged(eps, q0), u0, t, cfg)
    assert np.max(np.abs(gauge_transform(scaled, t, eps, q0).coeff - gauged.coeff)) <= 1e-8


def test_transport_flow_conserves_hankel_spectrum(grid16, rng):
    """Translation leaves the Hankel spectrum alone, so the transport-form
    flow inherits spectrum conservation from the plain one."""
    from halfwave import build_hankel, spectral_summary

    u0 = random_analytic_field(grid16, rng, support=4, scale=0.3)
    before = spectral_summary(build_hankel(u0))
    final = evolve(EvolutionProblem.szego_transport(), u0, 10.0, StepperConfig(dt=0.01))
    after = spectral_summary(build_hankel(final))
    # compare eigenvalues carrying real weight; on this narrow band the
    # deep tail sits at the truncation-bleed floor of the discretization
    solid = before.hw2_eigenvalues > 1e-4 * before.hw2_eigenvalues[0]
    dev = np.max(np.abs(after.hw2_eigenvalues[solid] - before.hw2_eigenvalues[solid])
                 / before.hw2_eigenvalues[solid])
    assert dev <= 1e-6


def test_transport_is_translated_plain_szego(grid16, rng):
    """v(t, x) = w(t, x - t) links the transport and plain flows."""
    u0 = random_analytic_field(grid16, rng, scale=0.5)
    t = 5.0
    cfg = StepperConfig(dt=0.01)
    plain = evolve(EvolutionProblem.szego_plain(), u0, t, cfg)
    transport = evolve(EvolutionProblem.szego_transport(), u0, t, cfg)
    translated = plain.coeff * np.exp(-1j * grid16.modes() * t)
    assert np.max(np.abs(translated - transport.coeff)) <= 1e-8


@pytest.mark.parametrize("n", [16, 64])
def test_szego_scaling_identity(n, rng):
    """lam W(lam^2 t) is a plain Szego flow, and the scheme keeps this
    exactly: stepping lam w0 at dt/lam^2 to T/lam^2 gives lam times the
    run from w0 at dt to T.  The inflation sweep runs at eps = 1 on the
    strength of this homogeneity."""
    grid = GridSpec.with_padding(n)
    w0 = random_analytic_field(grid, rng, scale=0.5)
    t, dt = 1.0, 0.01
    problem = EvolutionProblem.szego_plain()
    base = evolve(problem, w0, t, StepperConfig(dt=dt)).coeff

    def scaled(lam):
        u0 = TorusField(grid, lam * w0.coeff)
        return evolve(problem, u0, t / lam**2, StepperConfig(dt=dt / lam**2)).coeff

    # powers of two rescale without rounding, so the identity is bitwise
    assert np.array_equal(scaled(2.0), 2.0 * base)
    assert np.max(np.abs(scaled(5.0) - 5.0 * base)) <= 1e-13 * np.max(np.abs(5.0 * base))


@pytest.mark.parametrize("a", [0.7, 2.0])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("problem", [EvolutionProblem.half_wave(),
                                     EvolutionProblem.half_wave_gauged(0.5, 0.3),
                                     EvolutionProblem.szego_plain()],
                         ids=["half_wave", "half_wave_gauged", "szego_plain"])
def test_translation_commutes_with_flow(problem, n, a, rng):
    """Every flow commutes with u(x) -> u(x - a), and so does the scheme:
    the translation multiplies mode k by e^{-ika}, which passes through
    the diagonal linear phase and, up to rounding, the cubic term."""
    grid = GridSpec.with_padding(n)
    u0 = random_field(grid, rng, scale=0.5)  # negative modes: P_+ acts
    shift = np.exp(-1j * grid.modes() * a)
    cfg = StepperConfig(dt=0.01)
    stepped_then_shifted = shift * evolve(problem, u0, 1.0, cfg).coeff
    shifted_then_stepped = evolve(problem, TorusField(grid, shift * u0.coeff), 1.0, cfg).coeff
    err = np.max(np.abs(stepped_then_shifted - shifted_then_stepped))
    assert err <= 1e-13 * np.max(np.abs(stepped_then_shifted))


def test_free_flows_coincide_on_analytic_data(grid16, rng):
    """|D| and D agree on nonnegative modes, so the two free flows
    translate analytic data identically (the zero-coupling limit of the
    effective-dynamics comparison)."""
    u0 = random_analytic_field(grid16, rng)
    cfg = StepperConfig(dt=0.05)
    a = evolve(EvolutionProblem.free_half_wave(), u0, 4.0, cfg)
    b = u0.coeff * np.exp(-1j * grid16.modes() * 4.0)  # transport phases
    assert np.max(np.abs(a.coeff - b)) <= 1e-12


def test_observer_called_at_monitor_times(grid16):
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    seen = [t for t, _ in trajectory(EvolutionProblem.free_half_wave(), u0, 1.0,
                                     StepperConfig(dt=0.1, monitor_stride=5))]
    assert seen[0] == 0.0
    assert seen == pytest.approx([0.0, 0.5, 1.0])


def test_blow_up_aborts_with_last_valid_time(grid16):
    # a huge step on a strongly nonlinear state overflows quickly; the
    # step's own overflow warnings must not escape, so they are errors here
    u0 = TorusField.from_modes(grid16, {1: 80.0, 0: 60.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as info:
            evolve(EvolutionProblem.half_wave(), u0, 2000.0, StepperConfig(dt=10.0))
    assert info.value.last_valid_time >= 0.0


def test_blow_up_error_pickles():
    """Workers of a threaded sweep send the error back pickled."""
    err = pickle.loads(pickle.dumps(BlowUpError(1.5)))
    assert isinstance(err, BlowUpError)
    assert err.last_valid_time == 1.5
    assert str(err) == "non-finite state after t = 1.5"


def test_conservation_smoke(grid16, rng):
    """Short-horizon drift of the matched energy and charge."""
    u0 = random_analytic_field(grid16, rng, scale=0.4)
    for problem in (EvolutionProblem.half_wave(), EvolutionProblem.szego_plain()):
        states = [TorusField(grid16, coeff) for _, coeff in
                  trajectory(problem, u0, 5.0, StepperConfig(dt=0.01, monitor_stride=50))]
        energies = np.array([energy(problem, u) for u in states])
        charges = np.array([charge(u) for u in states])
        assert np.max(np.abs(energies - energies[0])) <= 1e-10 * max(1.0, abs(energies[0]))
        assert np.max(np.abs(charges - charges[0])) <= 1e-10 * charges[0]


def test_richardson_check_reports_small_discrepancy(grid16, rng):
    u0 = random_analytic_field(grid16, rng, scale=0.3)
    ends = []

    def mode_one(dt, stride):
        *_, (t, coeff) = trajectory(EvolutionProblem.half_wave(), u0, 2.0,
                                    StepperConfig(dt=dt, monitor_stride=stride))
        ends.append(t)
        return TorusField(grid16, coeff).mode(1).real

    _, disc = _richardson(mode_one, 0.01, "half_wave mode 1")
    assert disc <= 1e-8
    assert ends == pytest.approx([2.0, 2.0])
    with pytest.raises(NumericalFailure):
        _richardson(lambda dt, stride: dt, 0.01, "dt itself")


#: stacks that mix projection and gauge rows, and a zero-coupling row
STACKS = {
    "gauged_and_transport": (EvolutionProblem.half_wave_gauged(0.5, 0.3),
                             EvolutionProblem.szego_transport(0.5, 0.3)),
    "free_and_szego": (EvolutionProblem.free_half_wave(), EvolutionProblem.szego_plain()),
}


@pytest.mark.parametrize("dt", [0.01], ids=["ifrk4-0.01"])
@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("stack", STACKS.values(), ids=list(STACKS))
def test_stacked_rows_equal_single_trajectories(stack, n, dt, rng):
    """Row i of a stacked trajectory is bit for bit problem i's own
    trajectory at every yielded time."""
    grid = GridSpec.with_padding(n)
    u0 = random_field(grid, rng, scale=0.5)  # negative modes: P_+ acts
    cfg = StepperConfig(dt=dt, monitor_stride=7)
    stacked = list(trajectory(stack, u0, 0.3, cfg))
    for i, problem in enumerate(stack):
        single = list(trajectory(problem, u0, 0.3, cfg))
        assert [t for t, _ in stacked] == [t for t, _ in single]
        for (_, rows), (_, coeff) in zip(stacked, single):
            assert rows.shape == (len(stack), grid.n_coeff)
            assert np.array_equal(rows[i], coeff)


def test_stack_with_one_exploding_row_blows_up(grid16):
    u0 = TorusField.from_modes(grid16, {1: 80.0, 0: 60.0})
    cfg = StepperConfig(dt=10.0)
    free = EvolutionProblem.free_half_wave()
    assert all(np.all(np.isfinite(c)) for _, c in trajectory(free, u0, 2000.0, cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError):
            for _ in trajectory((free, EvolutionProblem.half_wave()), u0, 2000.0, cfg):
                pass


def test_stack_rejections(grid16):
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    cfg = StepperConfig(dt=0.1)
    stack = (EvolutionProblem.half_wave(), EvolutionProblem.szego_plain())
    with pytest.raises(ValueError, match="trajectory"):
        evolve(stack, u0, 1.0, cfg)
    with pytest.raises(ValueError, match="empty"):
        next(trajectory((), u0, 1.0, cfg))
    with pytest.raises(ValueError, match="empty"):
        integrate.make_stepper([], grid16, 0.1)
