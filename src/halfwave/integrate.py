"""Time integration of the evolution problems.

The scheme is integrating-factor RK4: the linear phase e^{-i t L}
is applied exactly and classical RK4 acts on the transformed
nonlinearity, so the step size is set by the nonlinear timescale alone.
The independent cross-check is oracles.galerkin_reference, which shares
no code with this path.

A step count is chosen so that an integer number of steps lands exactly
on t_end (the actual dt, never larger than requested, is reported);
step_count is that rule and the one check on a step: a dt of t_end / n
gives back exactly n, and a dt that is not positive or asks for more
than _MAX_STEPS steps is a ValueError.  The stepping loop is the
generator trajectory, which yields the state every stride steps; every
functional of the flow is read off those states by the caller, and
evolve returns the final state alone.  Flows
that share a grid and a step move in lockstep as one stack: given a
sequence of problems, trajectory steps a (rows, n_coeff) array, one row
per problem, with one batched transform per RK stage.  Any non-finite
coefficient aborts the run with the last valid time attached.

Projected flows (P = P_+) keep the modes k < 0 of analytic data exactly
zero, so when every row is projected and u0 is analytic, trajectory
steps modes 0..N alone with transforms of length >= 2N + 1 instead of
4N + 1 (fields._AnalyticGrid).  A stack row is bit for bit the state the
problem's own trajectory reaches when both take the same path: always
on data with a negative mode, and on analytic data for an all-projected
stack.  A projected row in a mixed stack on analytic data takes the full
band and agrees with its own (analytic) trajectory to round-off.
"""

from __future__ import annotations

import numpy as np

from .fields import TorusField, _AnalyticGrid
from .problems import EvolutionProblem, _stack, linear_symbol, nonlinearity


#: the most steps one run may take, so that a tiny dt is a ValueError and
#: not a run that never ends
_MAX_STEPS = 10**9


class BlowUpError(RuntimeError):
    """Non-finite state: the discrete scheme blew up (the continuous flow
    is globally defined, so this signals a numerics problem)."""

    def __init__(self, last_valid_time: float):
        # the value stays in args, so the error pickles back from a worker
        super().__init__(last_valid_time)
        self.last_valid_time = last_valid_time

    def __str__(self):
        return f"non-finite state after t = {self.last_valid_time}"


class _IFRK4Stepper:
    """One RK4 step of du/dt = -i L u + N(u) on y(tau) = e^{i tau L} u, with
    exact linear phase; L = symbol (0: plain RK4), N = nonlinear."""

    def __init__(self, symbol, nonlinear, dt):
        self.dt = dt
        self.e_half = np.exp(-0.5j * dt * symbol)
        self.e_full = self.e_half**2
        self._nl = nonlinear

    def step(self, coeff):
        dt, eh, ef = self.dt, self.e_half, self.e_full
        a = self._nl(coeff)
        b = self._nl(eh * (coeff + 0.5 * dt * a))
        c = self._nl(eh * coeff + 0.5 * dt * b)
        d = self._nl(ef * coeff + dt * eh * c)
        return ef * coeff + (dt / 6.0) * (ef * a + 2.0 * eh * (b + c) + d)


def make_stepper(problem, grid, dt: float):
    """IFRK4 stepper for one problem, or for a stack of problems on one
    grid (it then steps (rows, n_coeff) arrays)."""
    return _IFRK4Stepper(linear_symbol(problem, grid), nonlinearity(problem, grid), dt)


def step_count(t_end: float, dt: float) -> int:
    """Number of equal steps of size at most dt that land on t_end.

    A ratio t_end / dt within a relative 1e-12 above an integer counts as
    that integer, so step_count(t_end, t_end / n) == n despite round-off.
    A dt that is not positive (NaN included), and a ratio above
    _MAX_STEPS or not finite, is a ValueError.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ratio = t_end / dt * (1.0 - 1e-12)
    if not ratio <= _MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end} / {dt} is not a finite step count "
                         f"of at most {_MAX_STEPS:.0e}")
    return max(1, int(np.ceil(ratio)))


def trajectory(problem, u0: TorusField, t_end: float, dt: float, stride: int = 10):
    """Step u0 to t_end at a step of at most dt; yields (t, coeff) at
    t = 0, every stride steps and t_end.

    For a sequence of problems every row starts at u0 and coeff is the
    (rows, n_coeff) stack.  The yielded arrays are never modified
    afterwards.  A non-finite state raises BlowUpError with the last
    valid time.  On the analytic path (see the module docstring) the
    yielded arrays still hold the whole band, zero on modes k < 0.  The
    arguments are checked before the state at t = 0 is yielded.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    n_steps = step_count(t_end, dt)
    problems, lead = _stack(problem)
    coeff = np.tile(u0.coeff, lead + (1,))
    yield 0.0, coeff
    if t_end == 0:
        return
    dt = t_end / n_steps
    grid, n = u0.grid, u0.grid.max_mode
    analytic = all(p.project for p in problems) and not u0.coeff[:n].any()
    if analytic:
        grid, coeff = _AnalyticGrid.with_padding(n), coeff[..., n:]
        negative = np.zeros(lead + (n,), dtype=np.complex128)
    stepper = make_stepper(problem, grid, dt)
    t_last = 0.0
    for i in range(1, n_steps + 1):
        # a blowing-up step overflows on its way to the non-finite state
        # reported below; only the step is wrapped, never the yield, so
        # the caller's own numpy warnings stay on
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = stepper.step(coeff)
        if not np.all(np.isfinite(coeff)):
            raise BlowUpError(t_last)
        t_last = i * dt
        if i % stride == 0 or i == n_steps:
            yield t_last, np.concatenate((negative, coeff), axis=-1) if analytic else coeff


def evolve(problem: EvolutionProblem, u0: TorusField, t_end: float, dt: float) -> TorusField:
    """Integrate one problem to t_end at a step of at most dt; returns the
    final state.

    Functionals of the state along the way are read off trajectory,
    which also steps a stack of problems.
    """
    if not isinstance(problem, EvolutionProblem):
        raise ValueError("evolve takes one problem; step a stack of problems "
                         "with trajectory")
    # one stride of the whole run: the states yielded are u0 and the last
    *_, (_, coeff) = trajectory(problem, u0, t_end, dt, stride=step_count(t_end, dt))
    return TorusField(u0.grid, coeff)
