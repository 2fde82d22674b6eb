"""Independent ground truths: plane waves, a no-FFT integrator, the
literal quadruple sums of the normal form and the explicit formula of
the cubic Szego flow.

Single modes solve every problem in closed form (the nonlinearity
reduces to a constant phase speed), giving exact references.  The
Galerkin reference integrator shares nothing with the production path
except the field type: explicit midpoint in time, direct convolution
sums for the nonlinearity, no integrating factor.  The quadruple sums
give the quartics R, Rtilde, F of halfwave.normalform and their fields
straight from the monomial coefficients, summed over every zero-sum
quadruple of the band (O(N^3), no transform); the normal form's
closed-form fields are checked against them.  The explicit formula of
Gerard & Grellier (Trans. AMS 367, 2015) gives every mode of the plain
Szego solution from polynomial data through two Hankel matrices, with
no time step; on w = b + c e^{ix}/(1 - p e^{ix}) it yields the rational
family, whose norms are summed as series.  It uses numpy alone, with no
transform and no field type.  Agreement between independent paths is
evidence, not shared bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import TorusField
from .normalform import _coefficients, _zero_sum
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
# quadruple sums of the normal-form quartics
# ---------------------------------------------------------------------------

QUARTIC_SUM_MAX_MODE = 32


def _quadruples(u: TorusField):
    n = u.grid.max_mode
    if n > QUARTIC_SUM_MAX_MODE:
        raise ValueError(
            f"quadruple sums are O(N^3); max_mode <= {QUARTIC_SUM_MAX_MODE}")
    return n, _zero_sum(n)


def quartic_sum(tag: str, u: TorusField) -> float:
    """R, Rtilde or F at u as the literal sum of
    coefficient * u_k1 conj(u_k2) u_k3 conj(u_k4) over the zero-sum
    quadruples of the band."""
    n, (k1, k2, k3, k4) = _quadruples(u)
    c = u.coeff
    term = c[k1 + n] * np.conj(c[k2 + n]) * c[k3 + n] * np.conj(c[k4 + n])
    return float(np.real(np.sum(_coefficients(tag, k1, k2, k3, k4) * term)))


def quartic_sum_field(tag: str, u: TorusField) -> TorusField:
    """The Hamiltonian field -2i dG/d(conj u_q) of the quartic G, summed
    over quadruples: the coefficients are symmetric in k2 <-> k4, so
    X_q = -4i sum_{k2 = q} coefficient * u_k1 u_k3 conj(u_k4)."""
    n, (k1, k2, k3, k4) = _quadruples(u)
    c = u.coeff
    term = c[k1 + n] * c[k3 + n] * np.conj(c[k4 + n])
    out = np.zeros(2 * n + 1, dtype=np.complex128)
    np.add.at(out, k2 + n, -4j * _coefficients(tag, k1, k2, k3, k4) * term)
    return TorusField(u.grid, out)


# ---------------------------------------------------------------------------
# the explicit formula of the cubic Szego flow and its rational family
# ---------------------------------------------------------------------------

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


def _hankel_flow(g: np.ndarray, t: float) -> np.ndarray:
    """e^{-i t G G^H} for a square matrix G, by one eigh of G G^H."""
    vals, vecs = np.linalg.eigh(g @ g.conj().T)
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def szego_explicit_modes(w0, t: float, n_modes: int) -> np.ndarray:
    """Modes 0 .. n_modes of the plain Szego solution at time t from the
    analytic polynomial data w0[0..N], by the explicit formula

        w(t)_k = (A^k e^{-i t H^2} w0 | 1),   A = e^{-i t H^2} e^{i t K^2} S*,

    with the Hankel matrices H[j, k] = w0_{j+k} and K[j, k] = w0_{j+k+1}
    (H^2 = H H^H, K^2 = K K^H) and the backward shift S*, which drops the
    first entry of a vector.  The polynomials of degree <= N carry all
    of it, so the modes are exact past N too, up to round-off.
    """
    w0 = np.asarray(w0, dtype=np.complex128)
    n = len(w0) - 1
    padded = np.concatenate((w0, np.zeros(n + 1, dtype=np.complex128)))
    index = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    flow_h = _hankel_flow(padded[index], t)
    shifted = (flow_h @ _hankel_flow(padded[index + 1], -t))[:, :n]
    v = flow_h @ w0
    out = np.empty(n_modes + 1, dtype=np.complex128)
    for k in range(n_modes + 1):
        out[k] = v[0]
        v = shifted @ v[1:]
    return out


def szego_inflation_state(eps: float, delta: float, t: float) -> RationalState:
    """Plain Szego solution at time t from eps (e^{ix} + delta).

    The solution stays in the rational family, so modes 0, 1 and 2 of
    the explicit formula fix it: b = w_0, c = w_1 and p = w_2 / w_1.
    """
    b, c, cp = szego_explicit_modes([eps * delta, eps], t, 2)
    return RationalState(complex(b), complex(c), complex(cp / c))


def inflation_constant(s: float) -> float:
    """C_s = 4^{s-1/2} Gamma(2s+1)^{1/2}: the limit of the inflation ratio.

    Momentum conservation gives |c|^2 = eps^2 lam^2, so
    ||w||_{H^s}^2 ~ Gamma(2s+1) eps^2 lam^{1-2s} as lam -> 0, and at
    t* = pi/(2 eps^2 delta) lam -> delta^2/4 as delta -> 0.  Hence
    ||w(t*)||_{H^s} delta^{2s-1} / eps -> C_s (4 sqrt(6) at s = 3/2).
    """
    return 4.0 ** (s - 0.5) * math.sqrt(math.gamma(2.0 * s + 1.0))
