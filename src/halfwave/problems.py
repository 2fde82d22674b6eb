"""The evolution problems and their conserved energies.

Every flow is one equation with four parameters,

  du/dt = -i (L u + c (P(|u|^2 u) - 2 q0 u)),

a linear multiplier L (the dispersion), a coupling c >= 0, a projection
P (P_+ onto modes k >= 0, or the identity) and a gauge charge q0 >= 0.
The named constructors set them as follows:

  constructor        equation                                 L    c      P    q0
  half_wave          i du/dt - |D|u = |u|^2 u                 |k|  1      id   0
  half_wave_scaled   i du/dt - |D|u = eps^2 |u|^2 u           |k|  eps^2  id   0
  half_wave_gauged   i du/dt - |D|u = eps^2 (|u|^2 - 2 q0) u  |k|  eps^2  id   q0
  szego_plain        i dw/dt       = P_+(|w|^2 w)             0    1      P_+  0
  szego_transport    i dv/dt - D v = eps^2 (P_+(|v|^2 v) - 2 q0 v)
                                                              k    eps^2  P_+  q0
  free_half_wave     i du/dt - |D|u = 0                       |k|  0      id   0

q0 is the conserved squared L2 norm of the initial state entering the
gauge; with eps = 1 and q0 = 0 the transport problem is the plain
transport-form Szego equation.  Each flow conserves its Hamiltonian
(see energy), the charge Q = ||u||_{L2}^2 and the momentum
sum_k k |u_k|^2; the projected energies are the conserved quantity on
analytic states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import GridSpec, TorusField
from .norms import besov_norm, charge, l4_norm
from .operators import _negative_modes

#: the linear multiplier L(k) of each dispersion, on float wavenumbers
DISPERSIONS = {"|k|": np.abs, "k": np.positive, "0": np.zeros_like}


@dataclass(frozen=True)
class EvolutionProblem:
    """The four parameters of a flow; kind only labels it."""

    dispersion: str
    coupling: float
    project: bool
    q0: float = 0.0
    kind: str = "custom"

    def __post_init__(self):
        if self.dispersion not in DISPERSIONS:
            raise ValueError(f"unknown dispersion {self.dispersion!r}")
        if not 0 <= self.coupling < np.inf:
            raise ValueError(f"{self.kind} requires a finite coupling >= 0, got {self.coupling}")
        if not self.q0 >= 0:
            raise ValueError(f"{self.kind} requires q0 >= 0, got {self.q0}")

    @classmethod
    def half_wave(cls):
        return cls("|k|", 1.0, False, kind="half_wave")

    @classmethod
    def half_wave_scaled(cls, eps: float):
        return cls("|k|", _eps_squared("half_wave_scaled", eps), False,
                   kind="half_wave_scaled")

    @classmethod
    def half_wave_gauged(cls, eps: float, q0: float):
        return cls("|k|", _eps_squared("half_wave_gauged", eps), False, q0,
                   kind="half_wave_gauged")

    @classmethod
    def szego_plain(cls):
        return cls("0", 1.0, True, kind="szego_plain")

    @classmethod
    def szego_transport(cls, eps: float = 1.0, q0: float = 0.0):
        return cls("k", _eps_squared("szego_transport", eps), True, q0,
                   kind="szego_transport")

    @classmethod
    def free_half_wave(cls):
        return cls("|k|", 0.0, False, kind="free_half_wave")


def _eps_squared(kind: str, eps: float) -> float:
    if not eps > 0:
        raise ValueError(f"{kind} requires eps > 0, got {eps}")
    return eps * eps


def _stack(problem):
    """The problems of one problem or a stack, and the leading shape of
    their coefficient arrays: () for one problem, (rows,) for a stack."""
    if isinstance(problem, EvolutionProblem):
        return (problem,), ()
    problems = tuple(problem)
    if not problems:
        raise ValueError("a stack of problems must not be empty")
    return problems, (len(problems),)


def linear_symbol(problem, grid: GridSpec) -> np.ndarray:
    """Multiplier of the linear part: |k|, k, or 0.

    For a stack of problems, one row per problem.
    """
    problems, lead = _stack(problem)
    k = grid.modes().astype(np.float64)
    return np.reshape([DISPERSIONS[p.dispersion](k) for p in problems],
                      lead + (grid.n_coeff,))


def nonlinearity(problem, grid: GridSpec):
    """Closure (coeff, out=None) -> -i c (P(|u|^2 u) - 2 q0 u) on raw
    coefficient arrays: the package's one dealiased cubic.

    One round trip on the padded grid, with no field wrapping: the band
    goes into a zero-padded spectrum, to grid values v, times |v|^2 and
    back.  On a full band the degree 3N < padded_len - N keeps it
    alias-free (M >= 4N + 1).  On an analytic grid (modes 0..N, all rows
    projected) only modes 0..N are read out, which no aliased copy of
    modes -N..2N reaches once M >= 2N + 1, so the term is P_+(|u|^2 u).
    The band is read out with one multiply per sign block by weights
    made here: -i c M^2 per row (numpy's inverse transform carries 1/M),
    0 on the modes k < 0 of projected rows.  A gauge q0 > 0 is added
    last as (2i c q0) u.  At c = 0 the term is exactly zero.  A sequence
    of problems on one grid acts on a (rows, n_coeff) array, one row per
    problem, with one batched transform per direction; one problem acts
    on any stack of rows.

    The term is written to out, which must not overlap coeff, and
    returned; without out it is a new array.  The closure keeps its
    work arrays for each input shape, made on the first call with that
    shape: only the band slots of the padded spectrum are ever written,
    so its padding stays zero, and a call with out allocates nothing.
    It is the one transform site outside halfwave.operators: it spells
    out the round trip of operators._grid_values and _band_coefficients
    fused in place, with their factors M and 1/M folded into its weights.
    """
    problems, lead = _stack(problem)
    column = lead + (1,)
    n, m, neg = grid.max_mode, grid.padded_len, _negative_modes(grid)
    coupling = np.reshape([p.coupling for p in problems], column)
    weight = -1j * (coupling * (m * m))
    # P_+ drops the modes k < 0 (an analytic grid has none)
    weight_minus = np.where(np.reshape([p.project for p in problems], column), 0.0, weight)
    gauge = 2j * coupling * np.reshape([p.q0 for p in problems], column)
    gauge = gauge if gauge.any() else None
    work = {}  # input shape -> padded spectrum, grid values, |v|^2, gauge term

    def term(c, out=None):
        if c.shape not in work:
            padded = c.shape[:-1] + (m,)
            work[c.shape] = (*(np.zeros(padded, dtype=np.complex128) for _ in range(3)),
                             None if gauge is None else np.empty(c.shape, dtype=np.complex128))
        spectrum, v, modulus, gauged = work[c.shape]
        spectrum[..., : n + 1] = c[..., neg:]
        spectrum[..., m - neg:] = c[..., :neg]
        np.fft.ifft(spectrum, out=v)
        # |v|^2 in the real part: v times it is the complex product numpy
        # forms with a real factor, without a cast buffer
        square = modulus.real
        np.abs(v, out=square)
        np.square(square, out=square)
        v *= modulus
        np.fft.fft(v, out=v)
        if out is None:
            out = np.empty(c.shape, dtype=np.complex128)
        np.multiply(weight_minus, v[..., m - neg:], out=out[..., :neg])
        np.multiply(weight, v[..., : n + 1], out=out[..., neg:])
        if gauge is not None:
            out += np.multiply(gauge, c, out=gauged)
        return out

    return term


def energy(problem: EvolutionProblem, u: TorusField) -> float:
    """The Hamiltonian (Lu,u)/2 + c (||u||_{L4}^4 / 4 - q0 ||u||_{L2}^2).

    With P = P_+ it is conserved on analytic states.
    """
    symbol = linear_symbol(problem, u.grid)
    value = 0.5 * float(np.sum(symbol * np.abs(u.coeff) ** 2))
    if problem.coupling:
        value += problem.coupling * (0.25 * l4_norm(u) ** 4 - problem.q0 * charge(u))
    return value


def default_time_step(problem: EvolutionProblem, u0: TorusField) -> float:
    """dt = min(0.01, 0.1 / (c max(1, ||u0||_{B111}^2))).

    ETDRK4 in the transport frame takes the linear part exactly (see
    halfwave.integrate), so the step is set by the nonlinear timescale
    ~ 1/c; the free flow uses c = 1.
    The sweeps that search their step (experiments._stepped) take it
    as the finest rung, their fallback, and sample every 10 dt.  A state
    too large for any positive step is a ValueError.
    """
    coupling = problem.coupling if problem.coupling > 0 else 1.0
    b = besov_norm(u0)
    dt = min(0.01, 0.1 / (coupling * max(1.0, b * b)))
    if not dt > 0:
        raise ValueError(f"no positive time step for ||u0||_B111 = {b:.3g} at coupling {coupling}")
    return dt
