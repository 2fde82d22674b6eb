"""Properties of the analytic path: trajectory steps modes 0..N alone,
on transforms of length >= 2N + 1, when every row is projected and u0
has no negative mode; otherwise it steps the whole band."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave import EvolutionProblem, GridSpec, TorusField, trajectory
from halfwave.integrate import make_stepper, step_count

T_END, DT = 0.2, 0.05
#: fixed examples, so the suite's outcome does not vary between runs
PROPERTY = settings(deadline=None, derandomize=True, database=None)


@st.composite
def projected_problems(draw):
    if draw(st.booleans()):
        return EvolutionProblem.szego_plain()
    return EvolutionProblem.szego_transport(draw(st.floats(0.1, 1.0)),
                                            draw(st.floats(0.0, 1.0)))


@st.composite
def analytic_data(draw):
    """Seeded analytic data with sup norm at most 1: modes 0..support,
    the top one nonzero and each other one zero with probability 1/4."""
    n = draw(st.integers(8, 64))
    support = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(support + 1)
    values = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) * (1.0 + k) ** -1.0
    values[:-1] *= rng.random(support) >= 0.25
    values /= np.sum(np.abs(values))
    grid = GridSpec.with_padding(n)
    coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
    coeff[n:n + support + 1] = values
    return TorusField(grid, coeff)


def _hand_stepped(problem, u0):
    """The full band stepped through make_stepper at trajectory's step,
    then translated back from the transport frame at T (u = e^{-iTD} y)
    when the problem steps in it (dispersion k)."""
    n_steps = step_count(T_END, DT)
    dt = T_END / n_steps
    stepper = make_stepper(problem, u0.grid, dt)
    coeff = u0.coeff
    for _ in range(n_steps):
        coeff = stepper.step(coeff)
    if problem.dispersion == "k":
        coeff = coeff * np.exp(-1j * (n_steps * dt) * u0.grid.modes())
    return coeff


def _final(problem, u0):
    *_, (_, coeff) = trajectory(problem, u0, T_END, DT)
    return coeff


@settings(PROPERTY, max_examples=40)
@given(projected_problems(), analytic_data())
def test_analytic_path_matches_full_band(problem, u0):
    want = _hand_stepped(problem, u0)
    got = _final(problem, u0)
    n = u0.grid.max_mode
    assert got.shape == (u0.grid.n_coeff,)
    assert not got[:n].any()
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(PROPERTY, max_examples=20)
@given(projected_problems(), analytic_data(), st.data())
def test_a_negative_mode_takes_the_full_band(problem, u0, data):
    n = u0.grid.max_mode
    k = data.draw(st.integers(-n, -1))
    amplitude = data.draw(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0))
    coeff = u0.coeff.copy()
    coeff[k + n] = amplitude
    u0 = TorusField(u0.grid, coeff)
    assert np.array_equal(_final(problem, u0), _hand_stepped(problem, u0))
