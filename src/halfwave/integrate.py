"""Time integration of the evolution problems.

The scheme is integrating-factor RK4: the linear phase e^{-i t L}
is applied exactly and classical RK4 acts on the transformed
nonlinearity, so the step size is set by the nonlinear timescale alone.
The independent cross-check is oracles.galerkin_reference, which shares
no code with this path.

A step count is chosen so that an integer number of steps lands exactly
on t_end (the actual dt, never larger than requested, is reported).
The stepping loop is the generator trajectory, which yields the state
every monitor_stride steps; every functional of the flow is read off
those states by the caller, and evolve keeps only the final one.  Flows
that share a grid and a step move in lockstep as one stack: given a
sequence of problems, trajectory steps a (rows, n_coeff) array, one row
per problem, with one batched transform per RK stage, and each row is
bit-for-bit the state the problem's own trajectory reaches.  Any
non-finite coefficient aborts the run with the last valid time attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TorusField
from .problems import EvolutionProblem, _stack, linear_symbol, nonlinearity


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    monitor_stride: int = 10

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be a positive integer")


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
    """One RK4 step on y(tau) = e^{i tau L} u, with exact linear phase."""

    def __init__(self, problem, grid, dt):
        self.dt = dt
        symbol = linear_symbol(problem, grid)
        self.e_half = np.exp(-0.5j * dt * symbol)
        self.e_full = self.e_half**2
        self._nl = nonlinearity(problem, grid)

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
    return _IFRK4Stepper(problem, grid, dt)


def trajectory(problem, u0: TorusField, t_end: float, cfg: StepperConfig):
    """Step u0 to t_end; yields (t, coeff) at t = 0, every monitor_stride
    steps and t_end.

    For a sequence of problems every row starts at u0 and coeff is the
    (rows, n_coeff) stack.  The yielded arrays are never modified
    afterwards.  A non-finite state raises BlowUpError with the last
    valid time.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    _, lead = _stack(problem)
    coeff = np.tile(u0.coeff, lead + (1,))
    yield 0.0, coeff
    if t_end == 0:
        return
    n_steps = max(1, int(np.ceil(t_end / cfg.dt - 1e-12)))
    dt = t_end / n_steps
    stepper = make_stepper(problem, u0.grid, dt)
    t_last = 0.0
    for n in range(1, n_steps + 1):
        # a blowing-up step overflows on its way to the non-finite state
        # reported below; only the step is wrapped, never the yield, so
        # the caller's own numpy warnings stay on
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = stepper.step(coeff)
        if not np.all(np.isfinite(coeff)):
            raise BlowUpError(t_last)
        t_last = n * dt
        if n % cfg.monitor_stride == 0 or n == n_steps:
            yield t_last, coeff


def evolve(problem: EvolutionProblem, u0: TorusField, t_end: float,
           cfg: StepperConfig) -> TorusField:
    """Integrate one problem to t_end; returns the final state.

    Functionals of the state along the way are read off trajectory,
    which also steps a stack of problems.
    """
    if not isinstance(problem, EvolutionProblem):
        raise ValueError("evolve takes one problem; step a stack of problems "
                         "with trajectory")
    for _, coeff in trajectory(problem, u0, t_end, cfg):
        pass
    return TorusField(u0.grid, coeff)
