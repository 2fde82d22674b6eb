"""Time integration of the evolution problems.

The production scheme is integrating-factor RK4: the linear phase
e^{-i t L} is applied exactly and classical RK4 acts on the transformed
nonlinearity, so the step size is set by the nonlinear timescale alone.
Explicit midpoint on the untransformed equation ships as a second,
deliberately different scheme for cross-checks.

A step count is chosen so that an integer number of steps lands exactly
on t_end (the actual dt, never larger than requested, is reported).
The stepping loop is the generator trajectory, which yields the state
every monitor_stride steps; evolve samples the requested monitors there,
and a pair of flows is compared by zipping two trajectories.  Any
non-finite coefficient aborts the run with the last valid time attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TorusField
from .hankel import build_hankel, spectral_summary
from .norms import besov_norm, charge, momentum, sobolev_norm
from .problems import EvolutionProblem, energy, linear_symbol, nonlinearity

IFRK4 = "ifrk4"
MIDPOINT = "midpoint"

DEFAULT_MONITORS = ("energy", "charge", "momentum", "b111", "hs")


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    scheme: str = IFRK4
    monitor_stride: int = 10

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.scheme not in (IFRK4, MIDPOINT):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be a positive integer")


@dataclass(frozen=True)
class InvariantRecord:
    """Monitors at one time; None for those not requested."""

    time: float
    energy: float | None = None
    charge: float | None = None
    momentum: float | None = None
    b111: float | None = None
    hs: float | None = None
    hankel_trace: float | None = None


class BlowUpError(RuntimeError):
    """Non-finite state: the discrete scheme blew up (the continuous flow
    is globally defined, so this signals a numerics problem)."""

    def __init__(self, last_valid_time: float, records):
        super().__init__(f"non-finite state after t = {last_valid_time}")
        self.last_valid_time = last_valid_time
        self.records = list(records)


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


class _MidpointStepper:
    """Explicit midpoint on the untransformed equation (oracle scheme)."""

    def __init__(self, problem, grid, dt):
        self.dt = dt
        self.symbol = linear_symbol(problem, grid)
        self._nl = nonlinearity(problem, grid)

    def _rhs(self, coeff):
        return -1j * (self.symbol * coeff) + self._nl(coeff)

    def step(self, coeff):
        half = coeff + 0.5 * self.dt * self._rhs(coeff)
        return coeff + self.dt * self._rhs(half)


def make_stepper(problem: EvolutionProblem, grid, dt: float, scheme: str = IFRK4):
    if scheme == IFRK4:
        return _IFRK4Stepper(problem, grid, dt)
    if scheme == MIDPOINT:
        return _MidpointStepper(problem, grid, dt)
    raise ValueError(f"unknown scheme {scheme!r}")


def trajectory(problem: EvolutionProblem, u0: TorusField, t_end: float,
               cfg: StepperConfig):
    """Step u0 to t_end; yields (t, coeff) at t = 0, every monitor_stride
    steps and t_end.

    The yielded arrays are never modified afterwards.  A non-finite
    state raises BlowUpError with the last valid time.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    coeff = u0.coeff
    yield 0.0, coeff
    if t_end == 0:
        return
    n_steps = max(1, int(np.ceil(t_end / cfg.dt - 1e-12)))
    dt = t_end / n_steps
    stepper = make_stepper(problem, u0.grid, dt, cfg.scheme)
    t_last = 0.0
    for n in range(1, n_steps + 1):
        coeff = stepper.step(coeff)
        if not np.all(np.isfinite(coeff)):
            raise BlowUpError(t_last, ())
        t_last = n * dt
        if n % cfg.monitor_stride == 0 or n == n_steps:
            yield t_last, coeff


def _record(problem, u, t, monitors, hs_order) -> InvariantRecord:
    """The requested monitors at time t; None for the rest."""
    def sample(name, fn, *args):
        return fn(*args) if name in monitors else None

    return InvariantRecord(
        time=t,
        energy=sample("energy", energy, problem, u),
        charge=sample("charge", charge, u),
        momentum=sample("momentum", momentum, u),
        b111=sample("b111", besov_norm, u),
        hs=sample("hs", sobolev_norm, u, hs_order),
        hankel_trace=sample("hankel", lambda: spectral_summary(build_hankel(u)).trace_norm),
    )


def evolve(
    problem: EvolutionProblem,
    u0: TorusField,
    t_end: float,
    cfg: StepperConfig,
    monitors=DEFAULT_MONITORS,
    observer=None,
    hs_order: float = 0.5,
):
    """Integrate to t_end; returns (final state, invariant records).

    A record of the requested monitors is taken at every monitored time
    (including t = 0 and t_end); with monitors=() the record list is
    empty.  observer(t, field), when given, is called at the same times;
    use it to track experiment-specific functionals without enlarging
    the record schema.
    """
    records = []
    coeff = u0.coeff
    try:
        for t, coeff in trajectory(problem, u0, t_end, cfg):
            if monitors or observer is not None:
                u = TorusField(u0.grid, coeff)
                if monitors:
                    records.append(_record(problem, u, t, monitors, hs_order))
                if observer is not None:
                    observer(t, u)
    except BlowUpError as err:
        err.records = records
        raise
    return TorusField(u0.grid, coeff), records
