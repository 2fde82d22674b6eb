import numpy as np
import pytest

from halfwave import (
    IFRK4,
    MIDPOINT,
    BlowUpError,
    EvolutionProblem,
    PlaneWaveSpec,
    StepperConfig,
    TorusField,
    evolve,
    gauge_transform,
    plane_wave_solution,
)
from halfwave import integrate
from halfwave.experiments import NumericalFailure, _richardson
from halfwave.norms import charge

from conftest import random_analytic_field


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, scheme="euler")
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, monitor_stride=0)


def test_plane_wave_long_run(grid16):
    problem = EvolutionProblem.half_wave()
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    final, _ = evolve(problem, u0, 10.0, StepperConfig(dt=0.01))
    exact = plane_wave_solution(PlaneWaveSpec(0.1, 1, problem), 10.0, grid16)
    assert np.max(np.abs(final.coeff - exact.coeff)) <= 1e-10


def test_szego_single_mode_exact(grid16):
    problem = EvolutionProblem.szego_plain()
    c, k, t = 0.4 + 0.2j, 3, 7.0
    u0 = TorusField.from_modes(grid16, {k: c})
    final, _ = evolve(problem, u0, t, StepperConfig(dt=0.01))
    want = c * np.exp(-1j * abs(c) ** 2 * t)
    assert final.mode(k) == pytest.approx(want, abs=1e-11)


def test_free_flow_translates_coefficients(grid16, rng):
    u0 = random_analytic_field(grid16, rng)
    t = 3.0
    final, _ = evolve(EvolutionProblem.free_half_wave(), u0, t, StepperConfig(dt=0.05))
    want = u0.coeff * np.exp(-1j * np.abs(grid16.modes()) * t)
    assert np.max(np.abs(final.coeff - want)) <= 1e-12


def test_schemes_agree(grid16, rng):
    u0 = random_analytic_field(grid16, rng, scale=0.4)
    problem = EvolutionProblem.half_wave()
    a, _ = evolve(problem, u0, 5.0, StepperConfig(dt=0.002, scheme=IFRK4))
    b, _ = evolve(problem, u0, 5.0, StepperConfig(dt=0.0002, scheme=MIDPOINT))
    assert np.max(np.abs(a.coeff - b.coeff)) <= 1e-6


def test_gauge_equivalence_over_time(grid16, rng):
    """Scaled flow then gauge phase equals the gauged flow directly."""
    u0 = random_analytic_field(grid16, rng, scale=0.5)
    eps, t = 0.3, 10.0
    q0 = charge(u0)
    cfg = StepperConfig(dt=0.01)
    scaled, _ = evolve(EvolutionProblem.half_wave_scaled(eps), u0, t, cfg)
    gauged, _ = evolve(EvolutionProblem.half_wave_gauged(eps, q0), u0, t, cfg)
    assert np.max(np.abs(gauge_transform(scaled, t, eps, q0).coeff - gauged.coeff)) <= 1e-8


def test_transport_flow_conserves_hankel_spectrum(grid16, rng):
    """Translation leaves the Hankel spectrum alone, so the transport-form
    flow inherits spectrum conservation from the plain one."""
    from halfwave import build_hankel, spectral_summary

    u0 = random_analytic_field(grid16, rng, support=4, scale=0.3)
    before = spectral_summary(build_hankel(u0))
    final, _ = evolve(EvolutionProblem.szego_transport(), u0, 10.0,
                      StepperConfig(dt=0.01))
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
    plain, _ = evolve(EvolutionProblem.szego_plain(), u0, t, cfg)
    transport, _ = evolve(EvolutionProblem.szego_transport(), u0, t, cfg)
    translated = plain.coeff * np.exp(-1j * grid16.modes() * t)
    assert np.max(np.abs(translated - transport.coeff)) <= 1e-8


def test_free_flows_coincide_on_analytic_data(grid16, rng):
    """|D| and D agree on nonnegative modes, so the two free flows
    translate analytic data identically (the zero-coupling limit of the
    effective-dynamics comparison)."""
    u0 = random_analytic_field(grid16, rng)
    cfg = StepperConfig(dt=0.05)
    a, _ = evolve(EvolutionProblem.free_half_wave(), u0, 4.0, cfg)
    b = u0.coeff * np.exp(-1j * grid16.modes() * 4.0)  # transport phases
    assert np.max(np.abs(a.coeff - b)) <= 1e-12


def test_records_sampled_and_finite(grid16, rng):
    u0 = random_analytic_field(grid16, rng, scale=0.3)
    final, records = evolve(
        EvolutionProblem.half_wave(), u0, 1.0,
        StepperConfig(dt=0.01, monitor_stride=20), hs_order=0.5,
    )
    assert records[0].time == 0.0
    assert records[-1].time == pytest.approx(1.0)
    for r in records:
        for value in (r.energy, r.charge, r.momentum, r.b111, r.hs):
            assert np.isfinite(value)
        assert r.hankel_trace is None


def test_hankel_trace_monitor(grid16, rng):
    # support well inside the band keeps the truncation bleed negligible
    u0 = random_analytic_field(grid16, rng, support=4, scale=0.3)
    _, records = evolve(
        EvolutionProblem.szego_plain(), u0, 0.2,
        StepperConfig(dt=0.01, monitor_stride=10),
        monitors=("energy", "charge", "momentum", "b111", "hs", "hankel"),
    )
    traces = [r.hankel_trace for r in records]
    assert all(t is not None for t in traces)
    assert traces[0] == pytest.approx(traces[-1], rel=1e-9)


def test_observer_called_at_monitor_times(grid16):
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    seen = []
    evolve(EvolutionProblem.free_half_wave(), u0, 1.0,
           StepperConfig(dt=0.1, monitor_stride=5), observer=lambda t, u: seen.append(t))
    assert seen[0] == 0.0
    assert seen[-1] == pytest.approx(1.0)


def test_blow_up_aborts_with_last_valid_time(grid16):
    # a huge step on a strongly nonlinear state overflows quickly; the
    # overflow itself is the point, so numpy's warnings are silenced
    u0 = TorusField.from_modes(grid16, {1: 80.0, 0: 60.0})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as info:
            evolve(EvolutionProblem.half_wave(), u0, 2000.0, StepperConfig(dt=10.0))
    assert info.value.last_valid_time >= 0.0
    assert info.value.records


def test_conservation_smoke(grid16, rng):
    """Short-horizon drift of the matched energy and charge."""
    u0 = random_analytic_field(grid16, rng, scale=0.4)
    for problem in (EvolutionProblem.half_wave(), EvolutionProblem.szego_plain()):
        _, records = evolve(problem, u0, 5.0, StepperConfig(dt=0.01, monitor_stride=50))
        energies = np.array([r.energy for r in records])
        charges = np.array([r.charge for r in records])
        assert np.max(np.abs(energies - energies[0])) <= 1e-10 * max(1.0, abs(energies[0]))
        assert np.max(np.abs(charges - charges[0])) <= 1e-10 * charges[0]


def test_richardson_check_reports_small_discrepancy(grid16, rng):
    u0 = random_analytic_field(grid16, rng, scale=0.3)
    ends = []

    def mode_one(dt, stride):
        final, records = evolve(EvolutionProblem.half_wave(), u0, 2.0,
                                StepperConfig(dt=dt, monitor_stride=stride))
        ends.append(records[-1].time)
        return final.mode(1).real

    _, disc = _richardson(mode_one, 0.01, "half_wave mode 1")
    assert disc <= 1e-8
    assert ends == pytest.approx([2.0, 2.0])
    with pytest.raises(NumericalFailure):
        _richardson(lambda dt, stride: dt, 0.01, "dt itself")


def test_no_monitors_samples_nothing(grid16, rng, monkeypatch):
    """monitors=() takes no invariant sample; the observer still sees
    every monitored time, and a record holds only what was asked for."""
    def forbidden(*args, **kwargs):
        raise AssertionError("monitor computed although not requested")

    for name in ("energy", "besov_norm", "sobolev_norm"):
        monkeypatch.setattr(integrate, name, forbidden)
    u0 = random_analytic_field(grid16, rng, scale=0.3)
    cfg = StepperConfig(dt=0.01, monitor_stride=20)
    seen = []
    _, records = evolve(EvolutionProblem.half_wave(), u0, 1.0, cfg, monitors=(),
                        observer=lambda t, u: seen.append(t))
    assert records == []
    assert seen == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    _, records = evolve(EvolutionProblem.half_wave(), u0, 1.0, cfg,
                        monitors=("charge",))
    assert len(records) == 6
    assert all(r.charge == pytest.approx(charge(u0), rel=1e-12) for r in records)
    assert all(r.energy is None and r.b111 is None and r.hs is None
               and r.momentum is None for r in records)
