"""Properties of the Richardson pair: trajectory(..., pair=True) steps the
run of n steps and the run of 2n steps as one stack, and each run is bit
for bit its lone run at every sampled time, a blown-up run included."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave import EvolutionProblem, GridSpec, TorusField, trajectory
from halfwave.integrate import BlowUpError, step_count

DT = 0.1
#: fixed examples, so the suite's outcome does not vary between runs
PROPERTY = settings(deadline=None, derandomize=True, database=None)


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


@settings(PROPERTY, max_examples=60)
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
