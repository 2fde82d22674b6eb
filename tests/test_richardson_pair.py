"""Properties of the Richardson pair: trajectory(..., pair=True) steps the
run of n steps and the run of 2n steps as one stack, each run is bit for
bit its lone run at every sampled time, and a blow-up of either run ends
the pair with the last valid time of the lone run that blew up first."""

import math

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
    """The lone runs of the pair: n steps at stride, 2n at 2 stride."""
    n = step_count(t_end, dt)
    return [list(trajectory(problem, u0, t_end, t_end / steps, every))
            for steps, every in ((n, stride), (2 * n, 2 * stride))]


@settings(max_examples=60)
@given(problems(), band_data(), st.sampled_from([1, 2, 10]), st.sampled_from([0.3, 0.37]))
def test_pair_equals_its_lone_runs(problem, u0, stride, t_end):
    """0.37 is not a multiple of DT: both runs take the rounded step."""
    paired = list(trajectory(problem, u0, t_end, DT, stride, pair=True))
    for r, lone in enumerate(_lone_runs(problem, u0, t_end, DT, stride)):
        assert [t for t, _ in lone] == [t for t, _ in paired]
        for (_, coeff), (_, runs) in zip(lone, paired):
            assert np.array_equal(runs[r], coeff)


def _last_valid_time(run):
    """The last valid time of a run (a trajectory), inf if it reaches t_end."""
    try:
        for _ in run:
            pass
    except BlowUpError as exc:
        return exc.last_valid_time
    return math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("modes, t_end, dt, half_blows", [
    ({1: 1.0, 0: 0.5, -1: 0.3}, 10.0, 0.5, False),
    ({1: 80.0, 0: 60.0}, 2000.0, 10.0, True),
], ids=["dt-only", "both"])
def test_pair_raises_its_earliest_lone_blow_up(modes, t_end, dt, half_blows):
    """A pair ends at the first of its runs to go non-finite, with the
    last valid time of that run alone: the earlier of its lone runs'
    times.  In the first case only the run at dt blows up, in the second
    both do.  The step's overflow never warns."""
    u0 = TorusField.from_modes(GridSpec.with_padding(16), modes)
    problem = EvolutionProblem.half_wave()
    n = step_count(t_end, dt)
    times = [_last_valid_time(trajectory(problem, u0, t_end, t_end / steps))
             for steps in (n, 2 * n)]
    assert math.isfinite(times[0]) and math.isfinite(times[1]) == half_blows
    with pytest.raises(BlowUpError) as paired:
        list(trajectory(problem, u0, t_end, dt, pair=True))
    assert paired.value.last_valid_time == min(times)


@pytest.mark.parametrize("k", [5, 6])
def test_half_step_blow_up_keeps_its_lone_time(k, monkeypatch):
    """Only the run at dt/2 blows up, at its k-th step: the first (k odd)
    or the second (k even) of a step at dt.  The pair raises the time its
    lone run raises, (k - 1) dt/2, with the run at dt still finite.

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
    assert _last_valid_time(trajectory(problem, u0, 1.0, DT, 2)) == math.inf
    for pair in (True, False):
        taken[0] = 0
        dt = DT if pair else DT / 2
        assert _last_valid_time(trajectory(problem, u0, 1.0, dt, 2, pair)) == (k - 1) * DT / 2
