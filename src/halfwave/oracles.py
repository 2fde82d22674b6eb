"""Independent ground truths: plane waves, a no-FFT integrator and the
rational family of the cubic Szego flow.

Single modes solve every problem in closed form (the nonlinearity
reduces to a constant phase speed), giving exact references.  The
Galerkin reference integrator shares nothing with the production path
except the field type: explicit midpoint in time, direct convolution
sums for the nonlinearity, no integrating factor.  The rational-family
oracle solves the plain Szego flow on w = b + c e^{ix}/(1 - p e^{ix}) as
a three-dimensional ODE and evaluates its norms as series; it uses
numpy alone, with no transform and no field type.  Agreement between
independent paths is evidence, not shared bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import TorusField
from .problems import DISPERSIONS, EvolutionProblem, linear_symbol


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Single-mode initial state c e^{ikx} for a problem."""

    amplitude: complex
    mode: int
    problem: EvolutionProblem

    def __post_init__(self):
        if self.problem.project and self.mode < 0:
            raise ValueError("projected (Szego) problems require a nonnegative mode")


def plane_wave_frequency(spec: PlaneWaveSpec) -> float:
    """Phase speed: u(t) = c e^{ikx} e^{-i omega t}."""
    p = spec.problem
    symbol = float(DISPERSIONS[p.dispersion](float(spec.mode)))
    return symbol + p.coupling * (abs(spec.amplitude) ** 2 - 2.0 * p.q0)


def plane_wave_solution(spec: PlaneWaveSpec, t: float, grid) -> TorusField:
    omega = plane_wave_frequency(spec)
    return TorusField.from_modes(
        grid, {spec.mode: spec.amplitude * np.exp(-1j * omega * t)}
    )


def _convolve_cubic(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Band coefficients of a * conj(b) * c by direct convolution sums."""
    ac = np.convolve(a, c)                      # modes -2N .. 2N
    full = np.convolve(ac, np.conj(b)[::-1])    # modes -3N .. 3N
    return full[2 * n: 4 * n + 1]


def galerkin_reference(
    problem: EvolutionProblem, u0: TorusField, t_end: float, dt: float
) -> TorusField:
    """Explicit midpoint with convolution-sum nonlinearity.

    Requires a small grid (the convolution is O(N^2) per evaluation) and
    a step resolving the fastest linear frequency, dt <= 0.1 / N.
    """
    n = u0.grid.max_mode
    if n > 32:
        raise ValueError("galerkin_reference is restricted to max_mode <= 32")
    if dt > 0.1 / n:
        raise ValueError(f"dt must resolve the linear frequency: dt <= {0.1 / n}")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")

    symbol = linear_symbol(problem, u0.grid)
    coupling, q0 = problem.coupling, problem.q0
    plus = u0.grid.modes() >= 0

    def deriv(c):
        nl = 0.0
        if coupling:
            cubic = _convolve_cubic(c, c, c, n)
            if problem.project:
                cubic = np.where(plus, cubic, 0.0)
            nl = coupling * (cubic - 2.0 * q0 * c)
        return -1j * (symbol * c + nl)

    n_steps = max(1, int(np.ceil(t_end / dt - 1e-12))) if t_end > 0 else 0
    h = t_end / n_steps if n_steps else 0.0
    c = u0.coeff.copy()
    for _ in range(n_steps):
        half = c + 0.5 * h * deriv(c)
        c = c + h * deriv(half)
        if not np.all(np.isfinite(c)):
            raise RuntimeError("galerkin_reference: non-finite state")
    return TorusField(u0.grid, c)


# ---------------------------------------------------------------------------
# rational family of the cubic Szego flow
# ---------------------------------------------------------------------------

#: RK4 step of the rational-family flow (unit-size data); halving it moves
#: the inflation ratio by under 2e-10 for delta in [0.05, 0.4]
RATIONAL_DT = 1e-3


@dataclass(frozen=True)
class RationalState:
    """w = b + c z / (1 - p z) with z = e^{ix} and |p| < 1.

    Its Fourier modes are w_0 = b and w_k = c p^{k-1} for k >= 1.
    lam = 1 - |p|^2 measures the distance of the pole 1/p from the
    unit circle.
    """

    b: complex
    c: complex
    p: complex

    def __post_init__(self):
        if not abs(self.p) < 1.0:
            raise ValueError(f"the pole parameter must satisfy |p| < 1, got {self.p}")

    @property
    def lam(self) -> float:
        return 1.0 - abs(self.p) ** 2

    def modes(self, n: int) -> np.ndarray:
        """Coefficients w_0 .. w_n."""
        out = np.zeros(n + 1, dtype=np.complex128)
        out[0] = self.b
        out[1:] = self.c * complex(self.p) ** np.arange(n)
        return out

    def charge(self) -> float:
        """||w||_{L2}^2 = |b|^2 + |c|^2 / lam."""
        return abs(self.b) ** 2 + abs(self.c) ** 2 / self.lam

    def momentum(self) -> float:
        """sum_k k |w_k|^2 = |c|^2 / lam^2."""
        return abs(self.c) ** 2 / self.lam**2

    def l4_fourth(self) -> float:
        """||w||_{L4}^4 = ||w^2||_{L2}^2, summed in closed form.

        w^2 has modes b^2 at k = 0 and p^{k-2} (2 b c p + (k-1) c^2) for
        k >= 1; the geometric sums give the four terms below.
        """
        b, c, p, lam = self.b, self.c, self.p, self.lam
        b2, c2 = abs(b) ** 2, abs(c) ** 2
        return (b2**2 + 4.0 * b2 * c2 / lam + c2**2 * (2.0 - lam) / lam**3
                + 4.0 * c2 * (b * p * c.conjugate()).real / lam**2)

    def sobolev_norm(self, s: float) -> float:
        """||w||_{H^s}^2 = |b|^2 + |c|^2 sum_{k>=1} (1+k^2)^s |p|^{2(k-1)}.

        The series is summed directly up to the k where its terms fall
        below e^{-40} of their peak scale.
        """
        r = abs(self.p) ** 2
        k_max = 1
        if r > 0.0:
            x = 40.0
            for _ in range(4):
                x = 40.0 + 2.0 * s * math.log(x)
            k_max = max(1, math.ceil(x / -math.log(r)))
        if k_max > 10**7:
            raise ValueError(f"pole too close to the unit circle (lam={self.lam:.2e})")
        k = np.arange(1, k_max + 1, dtype=float)
        tail = float(np.sum((1.0 + k * k) ** s * r ** (k - 1.0)))
        return math.sqrt(abs(self.b) ** 2 + abs(self.c) ** 2 * tail)


def szego_rational_field(b: complex, c: complex, p: complex):
    """(b', c', p') of i w_t = P_+(|w|^2 w) on the rational family.

    On the circle conj(w) = conj(b) + conj(c) / (z - conj(p)), so

        P_+(|w|^2 w) = conj(b) w^2 + conj(c) (w(z)^2 - w(conj p)^2) / (z - conj p),

    the dropped part conj(c) w(conj p)^2 / (z - conj p) having only
    negative modes.  With u = z/(1 - p z) the divided difference is
    (2bc + c^2 (u(z) + u(conj p))) / (lam (1 - p z)), whose modes are
    A p^k + (c^2/lam) k p^{k-1} with A = (2bc + c^2 conj(p)/lam) / lam.
    Modes 0, 1 and 2 of w are b, c and c p, which fixes the three rates.
    Requires c != 0.
    """
    lam = 1.0 - (p.real * p.real + p.imag * p.imag)
    bb, cb = b.conjugate(), c.conjugate()
    c2 = c * c
    a = (2.0 * b * c + c2 * p.conjugate() / lam) / lam
    mode0 = bb * b * b + cb * a
    mode1 = 2.0 * bb * b * c + cb * (a * p + c2 / lam)
    mode2 = bb * (2.0 * b * c * p + c2) + cb * p * (a * p + 2.0 * c2 / lam)
    db = -1j * mode0
    dc = -1j * mode1
    return db, dc, (-1j * mode2 - dc * p) / c


def szego_rational_flow(state: RationalState, t: float,
                        dt: float = RATIONAL_DT) -> RationalState:
    """Plain Szego solution from a rational state, by RK4 on (b, c, p).

    Takes ceil(t / dt) equal steps.  The flow keeps the family, and its
    charge, momentum and L4 norm are conserved to the RK4 accuracy.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if state.c == 0:
        raise ValueError("c = 0 is a constant state; its pole parameter has no dynamics")
    y = (complex(state.b), complex(state.c), complex(state.p))
    n_steps = math.ceil(t / dt - 1e-12) if t > 0 else 0
    h = t / n_steps if n_steps else 0.0

    def shift(k, f):
        return tuple(yi + f * ki for yi, ki in zip(y, k))

    for _ in range(n_steps):
        k1 = szego_rational_field(*y)
        k2 = szego_rational_field(*shift(k1, 0.5 * h))
        k3 = szego_rational_field(*shift(k2, 0.5 * h))
        k4 = szego_rational_field(*shift(k3, h))
        y = tuple(yi + (h / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                  for yi, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4))
    return RationalState(*y)


def szego_inflation_state(eps: float, delta: float, t: float,
                          dt: float = RATIONAL_DT) -> RationalState:
    """Plain Szego solution at time t from eps (e^{ix} + delta).

    Integrates the unit-size data e^{ix} + delta and rescales through
    w(t) = eps W(eps^2 t); dt is a step in the time of W.
    """
    unit = szego_rational_flow(RationalState(delta, 1.0, 0.0), eps**2 * t, dt)
    return RationalState(eps * unit.b, eps * unit.c, unit.p)


def inflation_constant(s: float) -> float:
    """C_s = 4^{s-1/2} Gamma(2s+1)^{1/2}: the limit of the inflation ratio.

    Momentum conservation gives |c|^2 = eps^2 lam^2, so
    ||w||_{H^s}^2 ~ Gamma(2s+1) eps^2 lam^{1-2s} as lam -> 0, and at
    t* = pi/(2 eps^2 delta) lam -> delta^2/4 as delta -> 0.  Hence
    ||w(t*)||_{H^s} delta^{2s-1} / eps -> C_s (4 sqrt(6) at s = 3/2).
    """
    return 4.0 ** (s - 0.5) * math.sqrt(math.gamma(2.0 * s + 1.0))
