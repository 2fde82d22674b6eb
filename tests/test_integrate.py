import pickle
import warnings

import numpy as np
import pytest

from halfwave import (
    BlowUpError,
    EvolutionProblem,
    GridSpec,
    PlaneWaveSpec,
    TorusField,
    energy,
    evolve,
    gauge_transform,
    plane_wave_solution,
    trajectory,
)
from halfwave import integrate
from halfwave.experiments import HorizonRule, NumericalFailure, _richardson
from halfwave.norms import charge

from conftest import random_analytic_field, random_field


def test_stepper_config_validation(grid16):
    """A step that is not positive or a stride below 1 is rejected before
    the state at t = 0 is yielded."""
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    problem = EvolutionProblem.half_wave()
    for dt in (0.0, np.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            next(trajectory(problem, u0, 1.0, dt))
        with pytest.raises(ValueError, match="dt must be positive"):
            evolve(problem, u0, 1.0, dt)
    with pytest.raises(ValueError, match="stride"):
        next(trajectory(problem, u0, 1.0, 0.1, stride=0))


def test_plane_wave_long_run(grid16):
    problem = EvolutionProblem.half_wave()
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    final = evolve(problem, u0, 10.0, 0.01)
    exact = plane_wave_solution(PlaneWaveSpec(0.1, 1, problem), 10.0, grid16)
    assert np.max(np.abs(final.coeff - exact.coeff)) <= 1e-10


def test_szego_single_mode_exact(grid16):
    problem = EvolutionProblem.szego_plain()
    c, k, t = 0.4 + 0.2j, 3, 7.0
    u0 = TorusField.from_modes(grid16, {k: c})
    final = evolve(problem, u0, t, 0.01)
    want = c * np.exp(-1j * abs(c) ** 2 * t)
    assert final.mode(k) == pytest.approx(want, abs=1e-11)


def test_free_flow_translates_coefficients(grid16, rng):
    u0 = random_analytic_field(grid16, rng)
    t = 3.0
    final = evolve(EvolutionProblem.free_half_wave(), u0, t, 0.05)
    want = u0.coeff * np.exp(-1j * np.abs(grid16.modes()) * t)
    assert np.max(np.abs(final.coeff - want)) <= 1e-12


def test_gauge_equivalence_over_time(grid16, rng):
    """Scaled flow then gauge phase equals the gauged flow directly."""
    u0 = random_analytic_field(grid16, rng, scale=0.5)
    eps, t = 0.3, 10.0
    q0 = charge(u0)
    scaled = evolve(EvolutionProblem.half_wave_scaled(eps), u0, t, 0.01)
    gauged = evolve(EvolutionProblem.half_wave_gauged(eps, q0), u0, t, 0.01)
    assert np.max(np.abs(gauge_transform(scaled, t, eps, q0).coeff - gauged.coeff)) <= 1e-8


def test_transport_flow_conserves_hankel_spectrum(grid16, rng):
    """Translation leaves the Hankel spectrum alone, so the transport-form
    flow inherits spectrum conservation from the plain one."""
    from halfwave import build_hankel, spectral_summary

    u0 = random_analytic_field(grid16, rng, support=4, scale=0.3)
    before = spectral_summary(build_hankel(u0))
    final = evolve(EvolutionProblem.szego_transport(), u0, 10.0, 0.01)
    after = spectral_summary(build_hankel(final))
    # compare eigenvalues carrying real weight; on this narrow band the
    # deep tail sits at the truncation-bleed floor of the discretization
    solid = before.hw2_eigenvalues > 1e-4 * before.hw2_eigenvalues[0]
    dev = np.max(np.abs(after.hw2_eigenvalues[solid] - before.hw2_eigenvalues[solid])
                 / before.hw2_eigenvalues[solid])
    assert dev <= 1e-6


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("eps", [1.0, 0.3])
def test_transport_is_translated_plain_szego(eps, n, rng):
    """v(t, x) = w(eps^2 t, x - t) links the transport and plain flows, and
    the scheme keeps this exactly: the transport flow stepped at dt to T is
    the plain flow stepped at eps^2 dt to eps^2 T, translated by T."""
    grid = GridSpec.with_padding(n)
    u0 = random_analytic_field(grid, rng, scale=0.5)
    t, dt = 5.0, 0.01
    plain = evolve(EvolutionProblem.szego_plain(), u0, eps**2 * t,
                   eps**2 * dt)
    transport = evolve(EvolutionProblem.szego_transport(eps), u0, t, dt)
    translated = plain.coeff * np.exp(-1j * grid.modes() * t)
    scale = np.max(np.abs(transport.coeff))
    assert np.max(np.abs(translated - transport.coeff)) <= 1e-13 * scale


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
    base = evolve(problem, w0, t, dt).coeff

    def scaled(lam):
        u0 = TorusField(grid, lam * w0.coeff)
        return evolve(problem, u0, t / lam**2, dt / lam**2).coeff

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
    stepped_then_shifted = shift * evolve(problem, u0, 1.0, 0.01).coeff
    shifted_then_stepped = evolve(problem, TorusField(grid, shift * u0.coeff), 1.0, 0.01).coeff
    err = np.max(np.abs(stepped_then_shifted - shifted_then_stepped))
    assert err <= 1e-13 * np.max(np.abs(stepped_then_shifted))


def test_free_flows_coincide_on_analytic_data(grid16, rng):
    """|D| and D agree on nonnegative modes, so the two free flows
    translate analytic data identically (the zero-coupling limit of the
    effective-dynamics comparison)."""
    u0 = random_analytic_field(grid16, rng)
    a = evolve(EvolutionProblem.free_half_wave(), u0, 4.0, 0.05)
    b = u0.coeff * np.exp(-1j * grid16.modes() * 4.0)  # transport phases
    assert np.max(np.abs(a.coeff - b)) <= 1e-12


def test_observer_called_at_monitor_times(grid16):
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    seen = [t for t, _ in trajectory(EvolutionProblem.free_half_wave(), u0, 1.0,
                                     0.1, 5)]
    assert seen[0] == 0.0
    assert seen == pytest.approx([0.0, 0.5, 1.0])


def test_blow_up_aborts_with_last_valid_time(grid16):
    # a huge step on a strongly nonlinear state overflows quickly; the
    # step's own overflow warnings must not escape, so they are errors here
    u0 = TorusField.from_modes(grid16, {1: 80.0, 0: 60.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as info:
            evolve(EvolutionProblem.half_wave(), u0, 2000.0, 10.0)
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
                  trajectory(problem, u0, 5.0, 0.01, 50)]
        # evolve samples nothing on the way and reaches the same final state
        assert np.array_equal(evolve(problem, u0, 5.0, 0.01).coeff, states[-1].coeff)
        energies = np.array([energy(problem, u) for u in states])
        charges = np.array([charge(u) for u in states])
        assert np.max(np.abs(energies - energies[0])) <= 1e-10 * max(1.0, abs(energies[0]))
        assert np.max(np.abs(charges - charges[0])) <= 1e-10 * charges[0]


def test_richardson_check_reports_small_discrepancy(grid16, rng):
    u0 = random_analytic_field(grid16, rng, scale=0.3)
    ends = []

    def mode_one(dt, stride):
        *_, (t, coeff) = trajectory(EvolutionProblem.half_wave(), u0, 2.0,
                                    dt, stride)
        ends.append(t)
        return TorusField(grid16, coeff).mode(1).real

    _, step, disc = _richardson(mode_one, 2.0, 0.01, "half_wave mode 1")
    assert disc <= 1e-8
    assert step == 0.01
    assert ends == pytest.approx([2.0, 2.0])
    with pytest.raises(NumericalFailure):
        _richardson(lambda dt, stride: dt, 2.0, 0.01, "dt itself")


def test_step_count_inverts_the_step():
    """A step of t_end / n gives back exactly n steps, far beyond the
    counts where an absolute tolerance on t_end / dt rounds up."""
    for t_end in (1.0, 3.0, 1600.0, 50.0 / 0.025**2 * 0.3):
        for n in (1, 7, 9818, 239660, 3_200_001):
            assert integrate.step_count(t_end, t_end / n) == n
    assert integrate.step_count(1.0, 5.0) == 1
    assert integrate.step_count(1.0, 0.3) == 4


@pytest.mark.parametrize("t_end, dt, message", [
    (1.0, 0.0, "dt must be positive"),
    (1.0, -0.1, "dt must be positive"),
    (1.0, np.nan, "dt must be positive"),
    (1.0, 1e-300, "finite step count"),
    (1.0, 1e-320, "finite step count"),
    (np.inf, 0.1, "finite step count"),
    (1.0, 0.999e-9, "finite step count"),
])
def test_step_count_rejects_unusable_steps(t_end, dt, message):
    """A step that is not positive, or one that would take more than
    _MAX_STEPS steps, is a ValueError and never a loop that does not end."""
    with pytest.raises(ValueError, match=message):
        integrate.step_count(t_end, dt)
    assert integrate.step_count(1.0, 1e-9) == integrate._MAX_STEPS


class _Recorder:
    """A measure for _richardson: records (steps, stride) of each call and
    returns value(dt), or raises BlowUpError where value returns None."""

    def __init__(self, t_end, value):
        self.t_end, self.value, self.calls = t_end, value, []

    def __call__(self, dt, stride):
        self.calls.append((integrate.step_count(self.t_end, dt), stride))
        out = self.value(dt)
        if out is None:
            raise BlowUpError(0.0)
        return out


def test_richardson_half_run_takes_twice_the_steps():
    """At T = log(1/eps)/eps^2 for eps = 0.05, dt = 0.01 takes 119830
    steps; the dt/2 run takes exactly 239660 (a ceiling of T / 0.005
    gives 239659), so its stride-20 samples are the dt run's times."""
    t_end = HorizonRule("log", 1.0).time_for(0.05)
    measure = _Recorder(t_end, lambda dt: 1.0)
    _, step, _ = _richardson(measure, t_end, 0.01, "log horizon")
    assert measure.calls == [(119830, 10), (239660, 20)]
    assert step == t_end / 119830


def test_richardson_single_step_compares_two_runs():
    """dt/2 >= T still halves the step: one step of T against two, and
    the reported step is T, not the requested dt."""
    measure = _Recorder(1.0, lambda dt: 1.0 + dt / 8)
    value, step, rich = _richardson(measure, 1.0, 5.0, "one step")
    assert measure.calls == [(1, 10), (2, 20)]
    assert (value, step, rich) == (1.125, 1.0, 0.0625)


class TestRichardsonLadder:
    """The search over tau = 10 dt, tau/2, tau/4 (T = 1, dt = 0.01)."""

    @pytest.mark.parametrize("c, step, calls", [
        (0.5, 0.1, [(10, 1), (20, 2)]),
        (5.0, 0.05, [(10, 1), (20, 2), (40, 4)]),
        (50.0, 0.025, [(10, 1), (20, 2), (40, 4), (80, 8)]),
    ])
    def test_accepts_the_coarsest_passing_rung(self, c, step, calls):
        """With v(h) = 1 + c h^4 the rung discrepancy is c (15/16) h^4: the
        first rung under 1e-4 is taken, and each rung's half-step run is
        the next rung's coarse run, measured once."""
        measure = _Recorder(1.0, lambda dt: 1.0 + c * dt**4)
        value, got, rich = _richardson(measure, 1.0, 0.01, "ladder", search=True)
        assert got == pytest.approx(step, rel=1e-15)
        assert value == 1.0 + c * got**4
        assert rich <= 1e-4 * value
        assert measure.calls == calls

    def test_no_rung_passes_falls_back_to_dt(self):
        """The existing dt-itself case: every rung fails, then the (dt, dt/2)
        pair runs and its 10x bar still raises."""
        measure = _Recorder(1.0, lambda dt: dt)
        with pytest.raises(NumericalFailure, match="dt itself"):
            _richardson(measure, 1.0, 0.01, "dt itself", search=True)
        assert measure.calls == [(10, 1), (20, 2), (40, 4), (80, 8), (100, 10), (200, 20)]

    def test_fallback_reports_dt_when_it_passes(self):
        measure = _Recorder(1.0, lambda dt: 1.0 + dt)
        value, step, rich = _richardson(measure, 1.0, 0.01, "linear", search=True)
        assert (value, step) == (1.01, 0.01)
        assert rich == pytest.approx(0.005)
        assert measure.calls[-2:] == [(100, 10), (200, 20)]

    def test_trial_blow_up_rejects_only_its_rung(self):
        """A blow-up at tau rejects rung tau; tau/2 is tried next."""
        measure = _Recorder(1.0, lambda dt: None if dt > 0.06 else 1.0 + dt**4)
        _, step, _ = _richardson(measure, 1.0, 0.01, "blow-up", search=True)
        assert step == 0.05
        assert measure.calls == [(10, 1), (20, 2), (40, 4)]

    def test_fallback_blow_up_propagates(self):
        measure = _Recorder(1.0, lambda dt: None)
        with pytest.raises(BlowUpError):
            _richardson(measure, 1.0, 0.01, "always", search=True)
        assert measure.calls[-1] == (100, 10)

    def test_every_rung_samples_the_same_times(self, grid16, rng):
        """Every trial rung and the fallback pair yield the sample times of
        the stride-10 run at dt, here including a t_end that dt does not
        divide (T = 0.97: 97 steps of 0.01, tau rung 10 steps)."""
        u0 = random_analytic_field(grid16, rng, scale=0.3)
        times = []

        def measure(dt, stride):
            times.append([t for t, _ in trajectory(EvolutionProblem.half_wave(),
                                                   u0, 0.97, dt, stride)])
            return 1.0 + dt  # no rung passes: all six runs happen

        _richardson(measure, 0.97, 0.01, "times", search=True)
        assert len(times) == 6
        for other in times[1:]:
            assert other == pytest.approx(times[0], rel=1e-14, abs=1e-15)
        assert len(times[0]) == 11


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
    stacked = list(trajectory(stack, u0, 0.3, dt, 7))
    for i, problem in enumerate(stack):
        single = list(trajectory(problem, u0, 0.3, dt, 7))
        assert [t for t, _ in stacked] == [t for t, _ in single]
        for (_, rows), (_, coeff) in zip(stacked, single):
            assert rows.shape == (len(stack), grid.n_coeff)
            assert np.array_equal(rows[i], coeff)


@pytest.mark.parametrize("n", [16, 128])
def test_mixed_stack_on_analytic_data_matches_to_round_off(n, rng):
    """On analytic data a lone Szego flow steps modes 0..N on the short
    transform, while a stack with a half-wave row steps the whole band:
    the Szego rows then agree to round-off, not bit for bit."""
    grid = GridSpec.with_padding(n)
    u0 = random_analytic_field(grid, rng, support=8, scale=0.5)
    pair = (EvolutionProblem.szego_plain(), EvolutionProblem.half_wave())
    stacked = list(trajectory(pair, u0, 0.3, 0.01, 7))
    single = list(trajectory(pair[0], u0, 0.3, 0.01, 7))
    assert [t for t, _ in stacked] == [t for t, _ in single]
    for (_, rows), (_, coeff) in zip(stacked[1:], single[1:]):
        assert not coeff[:n].any()
        assert np.max(np.abs(rows[0] - coeff)) <= 1e-12 * np.max(np.abs(coeff))


def test_stack_with_one_exploding_row_blows_up(grid16):
    u0 = TorusField.from_modes(grid16, {1: 80.0, 0: 60.0})
    free = EvolutionProblem.free_half_wave()
    assert all(np.all(np.isfinite(c)) for _, c in trajectory(free, u0, 2000.0, 10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError):
            for _ in trajectory((free, EvolutionProblem.half_wave()), u0, 2000.0, 10.0):
                pass


def test_stack_rejections(grid16):
    u0 = TorusField.from_modes(grid16, {1: 0.1})
    stack = (EvolutionProblem.half_wave(), EvolutionProblem.szego_plain())
    with pytest.raises(ValueError, match="trajectory"):
        evolve(stack, u0, 1.0, 0.1)
    with pytest.raises(ValueError, match="empty"):
        next(trajectory((), u0, 1.0, 0.1))
    with pytest.raises(ValueError, match="empty"):
        integrate.make_stepper([], grid16, 0.1)
