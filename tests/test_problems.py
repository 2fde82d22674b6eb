import numpy as np
import pytest

from halfwave import (
    EvolutionProblem,
    TorusField,
    default_time_step,
    energy,
    cubic_term,
    project_plus,
    sobolev_norm,
)
from halfwave.problems import linear_symbol, nonlinearity

from conftest import gauge_transform, random_field


def test_problem_validation():
    with pytest.raises(ValueError):
        EvolutionProblem.half_wave_scaled(0.0)
    with pytest.raises(ValueError):
        EvolutionProblem.half_wave_gauged(0.1, -1.0)
    for bad in (dict(coupling=-0.1), dict(q0=-1.0), dict(dispersion="|k|^2")):
        with pytest.raises(ValueError):
            EvolutionProblem(**{"dispersion": "|k|", "coupling": 1.0,
                                "project": False, **bad})
    for make in (EvolutionProblem.half_wave_scaled,
                 lambda eps: EvolutionProblem.half_wave_gauged(eps, 0.0),
                 lambda eps: EvolutionProblem.szego_transport(eps, 0.0)):
        with pytest.raises(ValueError):
            make(-0.5)
    with pytest.raises(ValueError):
        EvolutionProblem.szego_transport(0.5, -1.0)
    # an eps whose square overflows gives no finite coupling
    for bad in (dict(coupling=np.inf), dict(coupling=np.nan)):
        with pytest.raises(ValueError, match="finite coupling"):
            EvolutionProblem(**{"dispersion": "|k|", "project": False, **bad})
    with pytest.raises(ValueError, match="finite coupling"):
        EvolutionProblem.half_wave_scaled(1e300)
    # transport with eps=1, q0=0 is the plain transport-form equation
    EvolutionProblem.szego_transport()


def test_linear_symbols(grid16):
    k = grid16.modes()
    assert np.array_equal(linear_symbol(EvolutionProblem.half_wave(), grid16), np.abs(k))
    assert np.array_equal(linear_symbol(EvolutionProblem.szego_transport(), grid16), k)
    assert np.all(linear_symbol(EvolutionProblem.szego_plain(), grid16) == 0)


def _rhs(problem, u):
    """du/dt = -i L u + nonlinearity(u), as band coefficients."""
    return (-1j * linear_symbol(problem, u.grid) * u.coeff
            + nonlinearity(problem, u.grid)(u.coeff))


class TestRhs:
    def test_half_wave_plane_wave(self, grid16):
        c, k = 0.5 + 0.1j, 2
        u = TorusField.from_modes(grid16, {k: c})
        out = _rhs(EvolutionProblem.half_wave(), u)
        assert out[k + grid16.max_mode] == pytest.approx(-1j * (abs(k) + abs(c) ** 2) * c)

    def test_szego_plane_wave(self, grid16):
        c, k = 0.3, 4
        u = TorusField.from_modes(grid16, {k: c})
        out = _rhs(EvolutionProblem.szego_plain(), u)
        assert out[k + grid16.max_mode] == pytest.approx(-1j * abs(c) ** 2 * c)

    def test_free_flow_is_linear(self, grid16, rng):
        u = random_field(grid16, rng)
        out = _rhs(EvolutionProblem.free_half_wave(), u)
        want = -1j * np.abs(grid16.modes()) * u.coeff
        assert np.allclose(out, want, atol=1e-14)

    def test_szego_rhs_is_analytic(self, grid16, rng):
        u = random_field(grid16, rng)
        out = _rhs(EvolutionProblem.szego_plain(), u)
        n = grid16.max_mode
        assert np.all(out[:n] == 0)


ALL_PROBLEMS = [
    EvolutionProblem.half_wave(),
    EvolutionProblem.half_wave_scaled(0.3),
    EvolutionProblem.half_wave_gauged(0.3, 0.04),
    EvolutionProblem.szego_plain(),
    EvolutionProblem.szego_transport(0.3, 0.04),
    EvolutionProblem.free_half_wave(),
]


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.kind)
def test_nonlinearity_matches_field_operators(problem, grid16, rng):
    """The raw-array nonlinearity equals c (P(|u|^2 u) - 2 q0 u) built from
    the TorusField operators, on a field with negative modes."""
    u = random_field(grid16, rng)
    cubic = cubic_term(u, u, u)
    if problem.project:
        cubic = project_plus(cubic)
    want = problem.coupling * (cubic.coeff - 2.0 * problem.q0 * u.coeff)
    got = 1j * nonlinearity(problem, grid16)(u.coeff)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_stacked_nonlinearity_rows_equal_single(grid16, rng):
    """Row i of the stacked closure is bit for bit problem i's own closure."""
    coeff = np.array([random_field(grid16, rng).coeff for _ in ALL_PROBLEMS])
    got = nonlinearity(ALL_PROBLEMS, grid16)(coeff)
    assert got.shape == coeff.shape
    for i, problem in enumerate(ALL_PROBLEMS):
        assert np.array_equal(got[i], nonlinearity(problem, grid16)(coeff[i]))
    symbols = linear_symbol(ALL_PROBLEMS, grid16)
    for i, problem in enumerate(ALL_PROBLEMS):
        assert np.array_equal(symbols[i], linear_symbol(problem, grid16))


@pytest.mark.parametrize("rows", [1, 3, len(ALL_PROBLEMS)])
def test_nonlinearity_into_out_equals_a_new_result(rows, grid16, rng):
    """Written into a caller's out, the term is bit for bit the one a new
    closure returns as a new array, on random stacks of every problem."""
    stack = ALL_PROBLEMS[:rows]
    coeff = np.array([random_field(grid16, rng).coeff for _ in stack])
    want = nonlinearity(stack, grid16)(coeff)
    term = nonlinearity(stack, grid16)
    for _ in range(2):  # the second call reuses the closure's scratch
        out = np.full_like(coeff, np.nan)
        assert term(coeff, out) is out
        assert np.array_equal(out, want)


def test_nonlinearity_results_are_new_arrays(grid16, rng):
    """Without out every call returns a new array, which later calls leave
    as it is; the input is never written."""
    term = nonlinearity(ALL_PROBLEMS, grid16)
    a, b = (np.array([random_field(grid16, rng).coeff for _ in ALL_PROBLEMS]) for _ in range(2))
    a_copy = a.copy()
    first = term(a)
    kept = first.copy()
    second = term(b)
    third = term(a)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, third)
    assert not np.shares_memory(second, third) and not np.shares_memory(first, a)
    assert np.array_equal(first, kept) and np.array_equal(a, a_copy)
    assert np.array_equal(third, first)


def test_stacked_nonlinearity_zero_coupling_and_empty(grid16, rng):
    free = (EvolutionProblem.free_half_wave(), EvolutionProblem.free_half_wave())
    coeff = np.array([random_field(grid16, rng).coeff for _ in free])
    assert np.array_equal(nonlinearity(free, grid16)(coeff), np.zeros_like(coeff))
    with pytest.raises(ValueError, match="empty"):
        nonlinearity((), grid16)


class TestEnergy:
    def test_half_wave_single_mode(self, grid16):
        eps = 0.25
        u = TorusField.from_modes(grid16, {1: eps})
        assert energy(EvolutionProblem.half_wave(), u) == pytest.approx(
            0.5 * eps**2 + 0.25 * eps**4
        )

    def test_free_energy_quadratic(self, grid16, rng):
        u = random_field(grid16, rng)
        k = grid16.modes()
        want = 0.5 * float(np.sum(np.abs(k) * np.abs(u.coeff) ** 2))
        assert energy(EvolutionProblem.free_half_wave(), u) == pytest.approx(want)

    def test_gauged_energy_matches_quadrature(self, grid16):
        eps = 0.3
        u = TorusField.from_modes(grid16, {0: eps, 1: eps})
        q = 2 * eps**2
        # H0 + eps^2 (L4^4/4 - q0 Q) with L4^4 = 6 eps^4 by hand and q0 = Q
        want = 0.5 * eps**2 + eps**2 * (0.25 * 6 * eps**4 - q * q)
        got = energy(EvolutionProblem.half_wave_gauged(eps, q), u)
        assert got == pytest.approx(want, rel=1e-12)


def test_gauge_transform_phase(grid16, rng):
    u = random_field(grid16, rng)
    assert gauge_transform(u, 0.0, 0.2, 1.0) == u
    moved = gauge_transform(u, 2.0, 0.2, 1.5)
    for s in (-0.5, 0.5, 1.5):
        assert sobolev_norm(moved, s) == pytest.approx(sobolev_norm(u, s))
    phase = np.exp(2j * 2.0 * 0.2**2 * 1.5)
    assert np.allclose(moved.coeff, phase * u.coeff)


def test_default_time_step_scales_with_eps(grid16):
    u = TorusField.from_modes(grid16, {1: 1.0, 0: 0.5})
    small = default_time_step(EvolutionProblem.half_wave_scaled(0.01), u)
    assert small == pytest.approx(0.01)
    big_coupling = default_time_step(EvolutionProblem.half_wave_scaled(10.0), u)
    assert big_coupling < 0.01


def test_default_time_step_rejects_a_state_too_large_for_a_step(grid16):
    """||u0||_B111^2 overflows: no positive step results, and the error
    names the norm instead of returning 0."""
    u = TorusField.from_modes(grid16, {1: 1e200, 0: 0.5e200})
    with pytest.raises(ValueError, match="B111"):
        default_time_step(EvolutionProblem.half_wave_scaled(0.2), u)
