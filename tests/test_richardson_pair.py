"""Properties of the Richardson pair: trajectory(..., pair=True) steps the
run of n steps and the run of 2n steps as one stack, and each run is bit
for bit its lone run at every sampled time, a blown-up run included."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave import EvolutionProblem, GridSpec, TorusField, trajectory
from halfwave import integrate
from halfwave.integrate import BlowUpError, step_count

DT = 0.1


@st.composite
def problems(draw):
    """One of the six problem kinds, or the approximation stack."""
    eps, q0 = draw(st.floats(0.1, 1.0)), draw(st.floats(0.0, 1.0))
    return draw(st.sampled_from([
        EvolutionProblem.half_wave(),
        EvolutionProblem.half_wave_scaled(eps),
        EvolutionProblem.half_wave_gauged(eps, q0),
        EvolutionProblem.szego_plain(),
        EvolutionProblem.szego_transport(eps, q0),
        EvolutionProblem.free_half_wave(),
        (EvolutionProblem.half_wave_gauged(eps, q0), EvolutionProblem.szego_transport(eps, q0)),
    ]))


@st.composite
def band_data(draw):
    """Seeded data with sup norm at most 1 on N in [8, 64]: analytic
    (modes 0..N, the analytic path of projected flows) or full band."""
    n = draw(st.integers(8, 64))
    low = 0 if draw(st.booleans()) else -n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(low, n + 1)
    values = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) / (1.0 + abs(k))
    values /= np.sum(np.abs(values))
    grid = GridSpec.with_padding(n)
    coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
    coeff[low + n:] = values
    return TorusField(grid, coeff)


def _lone_runs(problem, u0, t_end, dt, stride):
    """The lone runs of the pair: n steps at stride, 2n at 2 stride.  A
    run that blows up ends with its BlowUpError as the last sample."""
    n = step_count(t_end, dt)
    runs = []
    for steps, every in ((n, stride), (2 * n, 2 * stride)):
        samples = []
        try:
            for sample in trajectory(problem, u0, t_end, t_end / steps, every):
                samples.append(sample)
        except BlowUpError as exc:
            samples.append((None, exc))
        runs.append(samples)
    return runs


def _assert_pair_is_its_lone_runs(problem, u0, t_end, dt, stride):
    paired = list(trajectory(problem, u0, t_end, dt, stride, pair=True))
    for r, lone in enumerate(_lone_runs(problem, u0, t_end, dt, stride)):
        for (t, coeff), (t_pair, runs) in zip(lone, paired):
            if isinstance(coeff, BlowUpError):
                assert isinstance(runs[r], BlowUpError)
                assert runs[r].last_valid_time == coeff.last_valid_time
                break
            assert t == t_pair
            assert np.array_equal(runs[r], coeff)
        else:
            assert len(lone) == len(paired)
    return paired


@settings(max_examples=60)
@given(problems(), band_data(), st.sampled_from([1, 2, 10]), st.sampled_from([0.3, 0.37]))
def test_pair_equals_its_lone_runs(problem, u0, stride, t_end):
    """0.37 is not a multiple of DT: both runs take the rounded step."""
    _assert_pair_is_its_lone_runs(problem, u0, t_end, DT, stride)


def test_coarse_blow_up_leaves_the_half_step_run():
    """Only the run at dt blows up: it yields the BlowUpError of its lone
    run from then on, and the run at dt/2 finishes alone, equal to its
    lone run at every sample.  The step's overflow never warns."""
    u0 = TorusField.from_modes(GridSpec.with_padding(16), {1: 1.0, 0: 0.5, -1: 0.3})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paired = _assert_pair_is_its_lone_runs(EvolutionProblem.half_wave(), u0, 10.0, 0.5, 1)
    assert isinstance(paired[-1][1][0], BlowUpError)
    assert np.all(np.isfinite(paired[-1][1][1]))
    assert paired[-1][0] == 10.0


def test_pair_raises_when_both_runs_blow_up():
    """With no run left the pair raises the run at dt's error, as its lone
    run would."""
    u0 = TorusField.from_modes(GridSpec.with_padding(16), {1: 80.0, 0: 60.0})
    problem = EvolutionProblem.half_wave()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as lone:
            list(trajectory(problem, u0, 2000.0, 10.0))
        with pytest.raises(BlowUpError) as paired:
            list(trajectory(problem, u0, 2000.0, 10.0, pair=True))
    assert paired.value.last_valid_time == lone.value.last_valid_time


@pytest.mark.parametrize("k", [5, 6])
def test_half_step_blow_up_keeps_its_lone_time(k, monkeypatch):
    """Only the run at dt/2 blows up, at its k-th step: the first (k odd)
    or the second (k even) of a step at dt.  It yields the BlowUpError of
    its lone run from then on, with the same last valid time, and the run
    at dt finishes, equal to its lone run at every sample.

    The blow-up is made by the steppers: every step the run at dt/2 takes,
    in the pair's stepper (its rows are the second half) or in its own,
    counts, and from the k-th on its rows come back NaN."""
    taken, make_stepper = [0], integrate.make_stepper

    def poisoned(problem, grid, dt, pair=False):
        stepper = make_stepper(problem, grid, dt, pair=pair)
        if not pair and dt > DT / 2 * 1.5:  # the run at dt, stepped alone
            return stepper
        step = stepper.step

        def poison(y):
            out = step(y)
            taken[0] += 1
            if taken[0] >= k:
                out[len(out) // 2 if pair else 0:] = np.nan
            return out

        stepper.step = poison
        return stepper

    monkeypatch.setattr(integrate, "make_stepper", poisoned)
    u0 = TorusField.from_modes(GridSpec.with_padding(16), {1: 0.5, 0: 0.3, -1: 0.2})
    problem = EvolutionProblem.half_wave()
    paired = list(trajectory(problem, u0, 1.0, DT, 2, pair=True))
    taken[0] = 0
    lone_dt, lone_half = _lone_runs(problem, u0, 1.0, DT, 2)
    assert len(paired) == len(lone_dt) == 6
    for (t, coeff), (t_pair, runs) in zip(lone_dt, paired):
        assert t == t_pair
        assert np.array_equal(runs[0], coeff)
    assert isinstance(lone_half[-1][1], BlowUpError)
    assert lone_half[-1][1].last_valid_time == pytest.approx((k - 1) * DT / 2)
    for (t, coeff), (_, runs) in zip(lone_half, paired):
        if isinstance(coeff, BlowUpError):
            assert runs[1].last_valid_time == coeff.last_valid_time
            break
        assert np.array_equal(runs[1], coeff)
    assert all(isinstance(runs[1], BlowUpError) for _, runs in paired[len(lone_half) - 1:])
