import itertools
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave import (
    BlowUpError,
    EvolutionProblem,
    GridSpec,
    PlaneWaveSpec,
    TorusField,
    energy,
    evolve,
    galerkin_reference,
    plane_wave_solution,
    trajectory,
)
from halfwave import integrate
from halfwave.integrate import _etd_weights
from halfwave.experiments import HorizonRule, NumericalFailure, _peak, _richardson
from halfwave.fields import _AnalyticGrid
from halfwave.norms import charge

from conftest import gauge_transform, random_analytic_field, random_field


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


def _phi(k, z, terms=12):
    """phi_k(z) = sum_n z^n / (n + k)!, by its Taylor series."""
    return sum(z**n / math.factorial(n + k) for n in range(terms))


def test_etd_weights_match_direct_formulas_and_taylor_series():
    """The contour means agree with the closed forms where those do not
    cancel (|z| >= 1) and with the Taylor series of phi_1 - 3 phi_2 +
    4 phi_3, phi_2 - 2 phi_3 and 4 phi_3 - phi_2 near 0 (|z| < 1e-2), to
    1e-13; at z = 0 they are exactly h/2 and h/6."""
    far = np.array([1j, -1j, 1.0, 0.6 - 0.8j, 2.5j, -25.6j, 12.8j, -3.0 + 4.0j])
    q, f1, f2, f3 = _etd_weights(far, 1.0)
    e = np.exp(far)
    direct = ((np.exp(far / 2) - 1) / far,
              (-4 - far + e * (4 - 3 * far + far**2)) / far**3,
              (2 + far + e * (far - 2)) / far**3,
              (-4 - 3 * far - far**2 + e * (4 - far)) / far**3)
    for got, want in zip((q, f1, f2, f3), direct):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    near = np.array([1e-3j, -9e-3j, 5e-3, 2e-3 + 7e-3j, 1e-8j])
    q, f1, f2, f3 = _etd_weights(near, 1.0)
    taylor = (_phi(1, near / 2) / 2,
              _phi(1, near) - 3 * _phi(2, near) + 4 * _phi(3, near),
              _phi(2, near) - 2 * _phi(3, near),
              4 * _phi(3, near) - _phi(2, near))
    for got, want in zip((q, f1, f2, f3), taylor):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    h = 0.3
    zero = [w.tolist() for w in _etd_weights(np.zeros(3), h)]
    assert zero == [[h / 2] * 3, [h / 6] * 3, [h / 6] * 3, [h / 6] * 3]


@pytest.mark.parametrize("dt", [0.01, 0.37, 2.5, 10.0])
def test_free_half_wave_is_exact_at_any_step(grid16, dt):
    """With no nonlinearity ETDRK4 takes the linear part exactly: every
    plane wave of the free flow, negative modes included, lands on the
    oracle whatever the step."""
    problem = EvolutionProblem.free_half_wave()
    for k in (-16, -5, -1, 0, 3, 16):
        u0 = TorusField.from_modes(grid16, {k: 0.6 - 0.8j})
        final = evolve(problem, u0, 20.0, dt)
        exact = plane_wave_solution(PlaneWaveSpec(0.6 - 0.8j, k, problem), 20.0, grid16)
        assert np.max(np.abs(final.coeff - exact.coeff)) <= 1e-12


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "negative-modes"])
def test_transport_is_the_translated_plain_flow_at_every_yield(analytic, grid16, rng):
    """szego_transport(1, 0) steps the plain Szego equation in the frame
    y = e^{itD} u, so each of its yielded states is the plain trajectory
    translated by t, to round-off."""
    u0 = (random_analytic_field(grid16, rng, scale=0.5) if analytic
          else random_field(grid16, rng, scale=0.5))
    transport = list(trajectory(EvolutionProblem.szego_transport(1.0, 0.0), u0, 3.0, 0.05, 7))
    plain = list(trajectory(EvolutionProblem.szego_plain(), u0, 3.0, 0.05, 7))
    assert [t for t, _ in transport] == [t for t, _ in plain]
    for (t, v), (_, w) in zip(transport, plain):
        translated = w * np.exp(-1j * t * grid16.modes())
        assert np.max(np.abs(v - translated)) <= 1e-14 * np.max(np.abs(w))


def test_half_wave_order_against_galerkin_reference(grid16):
    """The observed order of the half-wave run against the independent
    Galerkin midpoint reference (at dt = 1e-4, whose own error is about
    1e-8) is at least 3.5 on each halving from dt = 0.2 to 0.05."""
    u0 = random_field(grid16, np.random.default_rng(3), support=2, scale=0.3)
    problem = EvolutionProblem.half_wave()
    reference = galerkin_reference(problem, u0, 2.0, dt=1e-4).coeff
    errors = [np.max(np.abs(evolve(problem, u0, 2.0, dt).coeff - reference))
              for dt in (0.2, 0.1, 0.05)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 3.5), orders


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


@st.composite
def band_data(draw):
    """Seeded data on a band N in [8, 64] of size 0.5, as conftest's
    fields: analytic, or with negative modes (where P_+ acts)."""
    grid = GridSpec.with_padding(draw(st.integers(8, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = random_analytic_field if draw(st.booleans()) else random_field
    return field(grid, rng, scale=0.5)


def _check_transport_is_translated_plain(eps, u0, t, dt):
    """The transport flow stepped at dt to T is the plain flow stepped at
    eps^2 dt to eps^2 T, translated by T, to 1e-13; the plain flow leaves
    P_- u0 alone and the transport flow translates it."""
    k, n = u0.grid.modes(), u0.grid.max_mode
    plain = evolve(EvolutionProblem.szego_plain(), u0, eps**2 * t, eps**2 * dt).coeff
    transport = evolve(EvolutionProblem.szego_transport(eps), u0, t, dt).coeff
    scale = np.max(np.abs(transport))
    assert np.max(np.abs(plain * np.exp(-1j * k * t) - transport)) <= 1e-13 * scale
    assert np.array_equal(plain[:n], u0.coeff[:n])
    translated = u0.coeff[:n] * np.exp(-1j * k[:n] * t)
    assert np.max(np.abs(transport[:n] - translated), initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("eps", [1.0, 0.3])
def test_transport_is_translated_plain_szego(eps, n, rng):
    """v(t, x) = w(eps^2 t, x - t) links the transport and plain flows, and
    the scheme keeps this exactly (N = 16 and 64, analytic data)."""
    u0 = random_analytic_field(GridSpec.with_padding(n), rng, scale=0.5)
    _check_transport_is_translated_plain(eps, u0, 5.0, 0.01)


@settings(max_examples=15)
@given(st.floats(0.1, 1.0), band_data())
def test_transport_is_translated_plain_szego_on_any_band(eps, u0):
    _check_transport_is_translated_plain(eps, u0, 1.0, 0.01)


def _check_szego_scaling(w0, lam):
    """Stepping lam w0 at dt/lam^2 to T/lam^2 gives lam times the run from
    w0 at dt to T: bitwise at lam = 2 (powers of two rescale without
    rounding), to 1e-13 at lam."""
    t, dt = 1.0, 0.01
    problem = EvolutionProblem.szego_plain()
    base = evolve(problem, w0, t, dt).coeff

    def scaled(lam):
        u0 = TorusField(w0.grid, lam * w0.coeff)
        return evolve(problem, u0, t / lam**2, dt / lam**2).coeff

    assert np.array_equal(scaled(2.0), 2.0 * base)
    assert np.max(np.abs(scaled(lam) - lam * base)) <= 1e-13 * np.max(np.abs(lam * base))


@pytest.mark.parametrize("n", [16, 64])
def test_szego_scaling_identity(n, rng):
    """lam W(lam^2 t) is a plain Szego flow, and the scheme keeps this
    exactly (N = 16 and 64, lam = 5).  The inflation sweep runs at eps = 1
    on the strength of this homogeneity."""
    _check_szego_scaling(random_analytic_field(GridSpec.with_padding(n), rng, scale=0.5), 5.0)


@settings(max_examples=15)
@given(band_data(), st.floats(0.5, 5.0))
def test_szego_scaling_identity_on_any_band(w0, lam):
    _check_szego_scaling(w0, lam)


def _check_translation_commutes(problem, u0, a):
    """The translation u(x) -> u(x - a) multiplies mode k by e^{-ika},
    which passes through the diagonal linear phase and, up to rounding,
    the cubic term: stepped then shifted equals shifted then stepped to
    1e-13."""
    shift = np.exp(-1j * u0.grid.modes() * a)
    stepped_then_shifted = shift * evolve(problem, u0, 1.0, 0.01).coeff
    shifted_then_stepped = evolve(problem, TorusField(u0.grid, shift * u0.coeff), 1.0, 0.01).coeff
    err = np.max(np.abs(stepped_then_shifted - shifted_then_stepped))
    assert err <= 1e-13 * np.max(np.abs(stepped_then_shifted))


#: the flows of the explicit translation cases: both dispersions, with
#: and without P_+ and the gauge
TRANSLATED = {
    "half_wave": EvolutionProblem.half_wave(),
    "half_wave_gauged": EvolutionProblem.half_wave_gauged(0.5, 0.3),
    "szego_plain": EvolutionProblem.szego_plain(),
}


@pytest.mark.parametrize("a", [0.7, 2.0])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("problem", TRANSLATED.values(), ids=TRANSLATED)
def test_translation_commutes_with_flow(problem, n, a, rng):
    """Every flow commutes with u(x) -> u(x - a), and so does the scheme
    (N = 16 and 64, data with negative modes)."""
    _check_translation_commutes(problem, random_field(GridSpec.with_padding(n), rng, scale=0.5), a)


@settings(max_examples=15)
@given(st.sampled_from([*TRANSLATED.values(), EvolutionProblem.szego_transport(0.5, 0.3)]),
       band_data(), st.floats(0.0, 2 * np.pi))
def test_translation_commutes_with_flow_on_any_band(problem, u0, a):
    _check_translation_commutes(problem, u0, a)


@settings(max_examples=15)
@given(st.floats(0.1, 1.0), band_data())
def test_gauge_identity_to_richardson_order(eps, u0):
    """The gauged flow is the scaled flow times e^{2 i t eps^2 q0}
    (conftest.gauge_transform).  The two schemes differ in time
    discretization only, so at dt their gap stays within four times the
    sum of their own dt vs dt/2 discrepancies (Richardson order; the
    ratio is about 16/15 once both runs are in their asymptotic range)."""
    t, dt, q0 = 2.0, 0.05, charge(u0)
    scaled, gauged = (EvolutionProblem.half_wave_scaled(eps),
                      EvolutionProblem.half_wave_gauged(eps, q0))

    def run(problem, step):
        return evolve(problem, u0, t, step).coeff

    s_dt, g_dt = run(scaled, dt), run(gauged, dt)
    rich = (np.max(np.abs(s_dt - run(scaled, dt / 2)))
            + np.max(np.abs(g_dt - run(gauged, dt / 2))))
    gap = np.max(np.abs(gauge_transform(TorusField(u0.grid, s_dt), t, eps, q0).coeff - g_dt))
    assert gap <= 4.0 * rich + 1e-13 * np.max(np.abs(g_dt))


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

    def mode_one(dt, stride, pair=False):
        *_, (t, coeff) = trajectory(EvolutionProblem.half_wave(), u0, 2.0,
                                    dt, stride, pair)
        runs = coeff if pair else (coeff,)
        ends.extend([t] * len(runs))
        return tuple(TorusField(grid16, c).mode(1).real for c in runs)

    _, step, disc = _richardson(mode_one, 2.0, 0.01, "half_wave mode 1")
    assert disc <= 1e-8
    assert step == 0.01
    assert ends == pytest.approx([2.0, 2.0])
    with pytest.raises(NumericalFailure):
        _richardson(lambda dt, stride, pair: (dt, dt / 2), 2.0, 0.01, "dt itself")


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
    """A measure for _richardson: records the runs of each call, one
    (steps, stride) each, and returns the tuple (value(dt),), or for a
    pair (value(dt), value(dt/2)).  Where value returns None the run blew up:
    its BlowUpError stands in for its value, and is raised when no run
    of the call is left, as integrate.trajectory does."""

    def __init__(self, t_end, value):
        self.t_end, self.value, self.calls = t_end, value, []

    def __call__(self, dt, stride, pair=False):
        n = integrate.step_count(self.t_end, dt)
        runs = ((n, stride), (2 * n, 2 * stride)) if pair else ((n, stride),)
        self.calls.append(runs)
        out = [self.value(self.t_end / steps) for steps, _ in runs]
        out = [BlowUpError(0.0) if v is None else v for v in out]
        if all(isinstance(v, BlowUpError) for v in out):
            raise out[0]
        return tuple(out)


def test_richardson_half_run_takes_twice_the_steps():
    """At T = log(1/eps)/eps^2 for eps = 0.05, dt = 0.01 takes 119830
    steps; the dt/2 run takes exactly 239660 (a ceiling of T / 0.005
    gives 239659), so its stride-20 samples are the dt run's times."""
    t_end = HorizonRule("log", 1.0).time_for(0.05)
    measure = _Recorder(t_end, lambda dt: 1.0)
    _, step, _ = _richardson(measure, t_end, 0.01, "log horizon")
    assert measure.calls == [((119830, 10), (239660, 20))]
    assert step == t_end / 119830


def test_richardson_single_step_compares_two_runs():
    """dt/2 >= T still halves the step: one step of T against two, and
    the reported step is T, not the requested dt."""
    measure = _Recorder(1.0, lambda dt: 1.0 + dt / 8)
    value, step, rich = _richardson(measure, 1.0, 5.0, "one step")
    assert measure.calls == [((1, 10), (2, 20))]
    assert (value, step, rich) == (1.125, 1.0, 0.0625)


def test_richardson_rejects_an_infinite_value():
    """A value that overflows to inf at dt has an infinite discrepancy
    under an infinite bar: a NumericalFailure, never a passing row."""
    measure = _Recorder(1.0, lambda dt: math.inf if dt > 0.006 else 1.0)
    with pytest.raises(NumericalFailure, match="overflow"):
        _richardson(measure, 1.0, 0.01, "overflow")
    # nor does the search accept a rung whose coarse run overflows
    measure = _Recorder(1.0, lambda dt: math.inf if dt > 0.06 else 1.0)
    assert _richardson(measure, 1.0, 0.01, "overflow", search=True) == (1.0, 0.05, 0.0)


def test_peak_keeps_a_nan_sample():
    """A run whose functional is NaN at one middle sample peaks at NaN,
    later samples notwithstanding, alone and in a pair, and _richardson
    rejects it: a NaN never drops out of the supremum."""
    u0 = TorusField.from_modes(GridSpec.with_padding(8), {1: 0.5})
    problem = EvolutionProblem.free_half_wave()

    def nan_at(call):
        """1.0, except NaN at the given call (the calls run sample by
        sample, and within a sample run by run)."""
        calls = itertools.count()
        return lambda c: math.nan if next(calls) == call else 1.0

    # 11 samples: the pair's run at dt at its second, then the lone run's third
    peak, peak_half = _peak(nan_at(2), problem, u0, 1.0, 0.01, 10, pair=True)
    assert math.isnan(peak) and peak_half == 1.0
    (peak,) = _peak(nan_at(2), problem, u0, 1.0, 0.01, 10)
    assert math.isnan(peak)
    for call in (2, 5):  # either run of the pair
        with pytest.raises(NumericalFailure, match="not finite"):
            _richardson(lambda dt, stride, pair: _peak(nan_at(call), problem, u0, 1.0,
                                                      dt, stride, pair), 1.0, 0.01, "nan")


class TestRichardsonLadder:
    """The search over tau = 10 dt, tau/2, tau/4 (T = 1, dt = 0.01)."""

    @pytest.mark.parametrize("c, step, calls", [
        (0.5, 0.1, [((10, 1), (20, 2))]),
        (5.0, 0.05, [((10, 1), (20, 2)), ((40, 4),)]),
        (50.0, 0.025, [((10, 1), (20, 2)), ((40, 4),), ((80, 8),)]),
    ])
    def test_accepts_the_coarsest_passing_rung(self, c, step, calls):
        """With v(h) = 1 + c h^4 the rung discrepancy is c (15/16) h^4: the
        first rung under 1e-4 is taken, and each rung's half-step run is
        the next rung's coarse run, measured once: the first rung is one
        pair, each later rung runs its half-step run alone."""
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
        assert measure.calls == [((10, 1), (20, 2)), ((40, 4),), ((80, 8),),
                                 ((100, 10), (200, 20))]

    def test_fallback_reports_dt_when_it_passes(self):
        measure = _Recorder(1.0, lambda dt: 1.0 + dt)
        value, step, rich = _richardson(measure, 1.0, 0.01, "linear", search=True)
        assert (value, step) == (1.01, 0.01)
        assert rich == pytest.approx(0.005)
        assert measure.calls[-1:] == [((100, 10), (200, 20))]

    def test_trial_blow_up_rejects_only_its_rung(self):
        """A blow-up at tau rejects rung tau; tau/2 is tried next, its
        coarse run the half-step run of the first pair."""
        measure = _Recorder(1.0, lambda dt: None if dt > 0.06 else 1.0 + dt**4)
        _, step, _ = _richardson(measure, 1.0, 0.01, "blow-up", search=True)
        assert step == 0.05
        assert measure.calls == [((10, 1), (20, 2)), ((40, 4),)]

    def test_fallback_blow_up_propagates(self):
        measure = _Recorder(1.0, lambda dt: None)
        with pytest.raises(BlowUpError):
            _richardson(measure, 1.0, 0.01, "always", search=True)
        assert measure.calls[-1] == ((100, 10), (200, 20))

    def test_every_rung_samples_the_same_times(self, grid16, rng):
        """Every trial rung and the fallback pair yield the sample times of
        the stride-10 run at dt, here including a t_end that dt does not
        divide (T = 0.97: 97 steps of 0.01, tau rung 10 steps)."""
        u0 = random_analytic_field(grid16, rng, scale=0.3)
        times = []

        def measure(dt, stride, pair=False):
            seen = [t for t, _ in trajectory(EvolutionProblem.half_wave(),
                                             u0, 0.97, dt, stride, pair)]
            times.extend([seen] * (2 if pair else 1))  # a pair's runs share its times
            # no rung passes: all six runs happen
            return (1.0 + dt, 1.0 + dt / 2) if pair else (1.0 + dt,)

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


@pytest.mark.parametrize("dt", [0.01], ids=["etdrk4-0.01"])
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


#: a lone, a stacked and a pair stepper on the N = 128 full band and on the
#: N = 1200 analytic band of the inflation rows
BUFFER_CASES = [f"{kind}-{n}" for n in (128, 1200) for kind in ("lone", "stack", "pair")]


def _buffer_case(case):
    """The stepper of a BUFFER_CASES name and the shape of its states."""
    kind, n = case.split("-")
    if n == "128":
        grid = GridSpec.with_padding(128)
        stack = (EvolutionProblem.half_wave_gauged(0.5, 0.3),
                 EvolutionProblem.szego_transport(0.5, 0.3))
    else:
        grid = _AnalyticGrid.with_padding(1200)
        stack = (EvolutionProblem.szego_plain(), EvolutionProblem.szego_transport(0.5))
    stepper = integrate.make_stepper(stack if kind == "stack" else stack[0], grid, 0.01,
                                     pair=kind == "pair")
    return stepper, (1 if kind == "lone" else 2, grid.n_coeff)


def _state(shape, rng):
    return 0.01 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("case", BUFFER_CASES)
def test_warm_step_allocates_only_its_result(case, rng):
    """Once the stepper has its buffers, a step's traced peak stays below
    3x the array it returns (a step that builds its stage arrays on every
    call peaks near 11x)."""
    stepper, shape = _buffer_case(case)
    y = _state(shape, rng)
    stepper.step(y)
    tracemalloc.start()
    try:
        result = stepper.step(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * result.nbytes


@pytest.mark.parametrize("case", BUFFER_CASES)
def test_step_results_are_never_written_again(case, rng):
    """Each step returns a new array, which later steps leave as it is; the
    input is never written."""
    stepper, shape = _buffer_case(case)
    y = _state(shape, rng)
    y_copy = y.copy()
    first = stepper.step(y)
    kept = first.copy()
    second = stepper.step(first)
    third = stepper.step(y)
    assert not np.shares_memory(first, second) and not np.shares_memory(second, third)
    assert not np.shares_memory(first, third)
    assert np.array_equal(first, kept) and np.array_equal(y, y_copy)
    assert np.array_equal(third, first)


def test_one_stepper_steps_each_shape_as_its_own(rng):
    """A stepper fed states of two shapes in turn gives each the step a
    stepper that only ever saw that shape gives: (n_coeff,) and (1, n_coeff)
    for one problem, as the lone stepper of a pair and trajectory feed it."""
    grid = GridSpec.with_padding(32)
    problem = EvolutionProblem.half_wave_gauged(0.5, 0.3)
    shared = integrate.make_stepper(problem, grid, 0.05)
    for y in [_state((grid.n_coeff,), rng), _state((1, grid.n_coeff), rng),
              _state((grid.n_coeff,), rng)]:
        lone = integrate.make_stepper(problem, grid, 0.05)
        assert np.array_equal(shared.step(y), lone.step(y))
