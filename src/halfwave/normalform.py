"""Resonance analysis and the quartic normal form of the gauged flow.

The quartic part of the gauged Hamiltonian couples frequency quadruples
(k1, k2, k3, k4) with k1 - k2 + k3 - k4 = 0.  The oscillation phase of a
quadruple is

    phase = |k1| - |k2| + |k3| - |k4|,

and on the zero-sum set phase = 0 holds exactly for the four families

    (1) all k_j >= 0, (2) all k_j <= 0, (3) k1 = k2 and k3 = k4,
    (4) k1 = k4 and k3 = k2.

A canonical transformation chi_eps = exp(eps^2 X_F) removes the
non-resonant quadruples: the generator has monomial coefficients
f = i / (4 phase) off the resonant set and 0 on it, which makes
{F, H0} + R = Rtilde hold coefficient-by-coefficient, where

    H0(u)     = (|D|u, u) / 2,
    R(u)      = (||u||_{L4}^4 - 2 ||u||_{L2}^4) / 4,
    Rtilde(u) = the same quartic sum restricted to phase = 0.

Each quartic G in {R, Rtilde, F} has one closed-form derivation: its
Hamiltonian vector field X_G, on (rows, n_coeff) stacks with products
taken pointwise on the padded grid, one batched transform per input and
result.  X_R is the flows' dealiased cubic (problems.nonlinearity of
the half-wave, -i |u|^2 u) plus 2i ||u||_{L2}^2 u.  R's coefficient
vanishes on the pair families except on the diagonal k1 = k2 = k3 = k4,
which lies in the sign families; these share only the zero quadruple, so
Rtilde(u) = R(u_{>=0}) + R(u_{<=0}) + |u_0|^4 / 4 and X_Rtilde is one
X_R on the stack (u_{>=0}, u_{<=0}).  X_F is one cubic phi on a stack
whose rows are (u_+, u_-) and (u_-, u_+).  chi_eps is stepped by the
ETDRK4 stepper of halfwave.integrate with the scalar symbol 0, which
makes it classical RK4 at no cost for the phi-weights, the flows of
several eps as the rows of one array.  The value of G is read off its
field by Euler's identity for a real quartic, 4 G(u) = Im (u | X_G(u)).
The resonant set and the four families are (n, 4) integer arrays,
compared as integer codes.  The literal quadruple sums over the retained
band are independent oracles (halfwave.oracles.quartic_sum and
quartic_sum_field, O(N^3), small grids only); on band-limited fields the
closed forms agree with them to round-off on the whole band.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import TorusField
from .integrate import _ETDRK4Stepper, _weights
from .norms import besov_norm
from .operators import _band, _d0_inverse, _pad, inner
from .problems import EvolutionProblem, nonlinearity

# tags for the four resonance families
ALL_NON_NEGATIVE = "all_non_negative"
ALL_NON_POSITIVE = "all_non_positive"
PAIR_12_34 = "pair_12_34"
PAIR_14_32 = "pair_14_32"

# functional tags
H0 = "h0"
R = "r"
RTILDE = "r_tilde"
F = "f"

ENUMERATION_MAX = 40

#: default smallness threshold for the canonical flow: eps * ||u||_B111
FLOW_SMALLNESS = 0.1
FLOW_SUBSTEPS = 16


def _phase(k1, k2, k3, k4):
    """|k1| - |k2| + |k3| - |k4|, on integers or on integer arrays."""
    return abs(k1) - abs(k2) + abs(k3) - abs(k4)


def _zero_sum(max_abs: int):
    """Every zero-sum quadruple with |k_j| <= max_abs, as arrays k1..k4."""
    rng = np.arange(-max_abs, max_abs + 1)
    k1, k2, k3 = np.meshgrid(rng, rng, rng, indexing="ij")
    k4 = k1 - k2 + k3
    ok = np.abs(k4) <= max_abs
    return k1[ok], k2[ok], k3[ok], k4[ok]


def _coefficients(tag: str, k1, k2, k3, k4):
    """Monomial coefficients of the quartic R, Rtilde or F.

    The quartic is the sum of coefficient * u_k1 conj(u_k2) u_k3 conj(u_k4)
    over the zero-sum set.  F: i / (4 phase), zero where phase = 0.
    R: (1 - [k1 = k2] - [k1 = k4]) / 4, the two diagonals giving the
    -2 ||u||_{L2}^4.  Rtilde: R's coefficient where phase = 0, zero
    elsewhere.
    """
    ph = _phase(k1, k2, k3, k4)
    if tag == F:
        return np.where(ph != 0, 1j / (4.0 * np.where(ph != 0, ph, 1)), 0.0)
    if tag not in (R, RTILDE):
        raise ValueError(f"{tag!r} is not a quartic functional")
    coef = 0.25 * (1.0 - (k1 == k2) - (k1 == k4))
    if tag == RTILDE:
        coef = coef * (ph == 0)
    return coef


def _case_masks(quads: np.ndarray):
    """Membership of (n, 4) integer quadruples in each of the four
    families, from their definitions: {tag: boolean mask}."""
    k1, k2, k3, k4 = quads.T
    return {
        ALL_NON_NEGATIVE: np.all(quads >= 0, axis=1),
        ALL_NON_POSITIVE: np.all(quads <= 0, axis=1),
        PAIR_12_34: (k1 == k2) & (k3 == k4),
        PAIR_14_32: (k1 == k4) & (k3 == k2),
    }


def _resonant_rows(max_abs: int) -> np.ndarray:
    """The zero-sum quadruples with |k_j| <= max_abs and phase = 0, as
    the rows of an (n, 4) integer array in lexicographic order (the
    zero-sum mesh runs over k1, k2, k3 in order, and k4 follows)."""
    if max_abs > ENUMERATION_MAX:
        raise ValueError(f"enumeration is O(K^3); max_abs <= {ENUMERATION_MAX}")
    k = _zero_sum(max_abs)
    ok = _phase(*k) == 0
    return np.stack([kj[ok] for kj in k], axis=1)


def _case_rows(max_abs: int) -> np.ndarray:
    """The four resonance families with |k_j| <= max_abs, built from
    their definitions (never from the phase) as the rows of an (n, 4)
    integer array; a quadruple in several families repeats."""
    nonneg = np.arange(0, max_abs + 1)
    a, b, c = np.meshgrid(nonneg, nonneg, nonneg, indexing="ij")
    d = a - b + c
    ok = (d >= 0) & (d <= max_abs)
    plus = np.stack([a[ok], b[ok], c[ok], d[ok]], axis=1)
    i, j = (x.ravel() for x in np.meshgrid(np.arange(-max_abs, max_abs + 1),
                                           np.arange(-max_abs, max_abs + 1),
                                           indexing="ij"))
    return np.concatenate((plus, -plus, np.stack([i, i, j, j], axis=1),
                           np.stack([i, j, j, i], axis=1)))


def _row_mismatch(a: np.ndarray, b: np.ndarray, max_abs: int) -> int:
    """Size of the symmetric difference of the row sets of two (n, 4)
    integer arrays with entries in [-max_abs, max_abs].

    Each row is coded as one integer, its digits k_j + max_abs in base
    2 max_abs + 1, so equal rows give equal codes and distinct rows
    distinct ones.
    """
    weights = (2 * max_abs + 1) ** np.arange(3, -1, -1, dtype=np.int64)
    return np.setxor1d((a + max_abs) @ weights, (b + max_abs) @ weights).size


def enumerate_resonances(max_abs: int):
    """All zero-sum quadruples with |k_j| <= max_abs and phase = 0, as a
    list of 4-tuples in lexicographic order."""
    return [tuple(row) for row in _resonant_rows(max_abs).tolist()]


def resonances_from_cases(max_abs: int):
    """The resonant set generated directly from the four case families, as
    a set of 4-tuples."""
    return {tuple(row) for row in _case_rows(max_abs).tolist()}


def coefficient_identity_max_error(max_abs: int = 20) -> float:
    """Exhaustive check of i*phase*f + r = rtilde on the zero-sum set.

    f and r are the coefficients of F and R; rtilde is r on the four
    resonance families, which are built here from their definitions (not
    from phase = 0), and 0 elsewhere.  Returns the largest absolute
    violation over |k_j| <= max_abs.
    """
    k = _zero_sum(max_abs)
    resonant = np.any(list(_case_masks(np.stack(k, axis=1)).values()), axis=0)
    r = _coefficients(R, *k)
    return float(np.max(np.abs(1j * _phase(*k) * _coefficients(F, *k) + r - r * resonant)))


# ---------------------------------------------------------------------------
# closed-form fields
# ---------------------------------------------------------------------------


def _phi(a: np.ndarray, b: np.ndarray, grid, inv: np.ndarray) -> np.ndarray:
    """Band coefficients of the cubic

        2 (D0^{-1} b) |a|^2 + 2 a D0^{-1}|b|^2 - conj(D0^{-1} b) a^2
        + D0^{-1}(|b|^2 b)

    for the rows of (rows, n_coeff) coefficient arrays a and b, inv the
    multiplier of D0^{-1}: grid values of a, b and D0^{-1} b, one round
    trip for D0^{-1}|b|^2 and two forward transforms, each one batched
    transform over all rows: 7 FFTs.
    """
    m = grid.padded_len
    va = np.fft.ifft(_pad(a, grid)) * m
    vb = np.fft.ifft(_pad(b, grid)) * m
    vjb = np.fft.ifft(_pad(b * inv, grid)) * m
    abs_b = np.abs(vb) ** 2
    j_abs_b = np.fft.ifft(_pad(_band(np.fft.fft(abs_b), grid) / m * inv, grid)) * m
    local = 2.0 * vjb * np.abs(va) ** 2 + 2.0 * va * j_abs_b - np.conj(vjb) * va**2
    return (_band(np.fft.fft(local), grid) / m
            + _band(np.fft.fft(abs_b * vb), grid) / m * inv)


def _generator_field(c: np.ndarray, grid) -> np.ndarray:
    """Hamiltonian vector field of the generator, X_F = -2i dF/d(conj u),
    of each row of (rows, n_coeff) coefficients.

    With u_+ = P_+ u and u_- = P_- u, the generator is
    F = Im(t1 - t2 - t3) / 2 for the three quartic integrals

        t1 = (D0^{-1} u_-, |u_+|^2 u_+),   t2 = (D0^{-1} u_+, |u_-|^2 u_-),
        t3 = (D0^{-1} |u_+|^2, |u_-|^2).

    F is real and D0^{-1} is a real odd multiplier, so
    conj(D0^{-1} f) = -D0^{-1} conj(f), and D0^{-1}|u_+|^2 and
    D0^{-1}|u_-|^2 are purely imaginary.  With these two facts the d/du
    half of the chain rule is the conjugate of the d/d(conj u) half, and
    both fold into one cubic:
    X_F = -(P_+ phi(u_+, u_-) - P_- phi(u_-, u_+)) / 2.
    Both orientations are rows of one stack, so phi runs once.
    """
    rows, n = len(c), grid.max_mode
    a = np.concatenate((c, c))
    a[:rows, :n] = 0.0  # u_+ rows, then u_- rows
    a[rows:, n:] = 0.0
    phi = _phi(a, np.roll(a, rows, axis=0), grid, _d0_inverse(grid))
    return -0.5 * np.where(grid.modes() >= 0, phi[:rows], -phi[rows:])


@functools.cache
def _cubic_field(grid):
    """-i |u|^2 u on coefficient rows: one half-wave nonlinearity per grid."""
    return nonlinearity(EvolutionProblem.half_wave(), grid)


def _r_field(c: np.ndarray, grid) -> np.ndarray:
    """X_R = -i (|u|^2 u - 2 ||u||_{L2}^2 u) of each row of (rows, n_coeff)
    coefficients: one transform each way."""
    q = np.sum(np.abs(c) ** 2, axis=-1, keepdims=True)
    return _cubic_field(grid)(c) + 2j * q * c


def _rtilde_field(c: np.ndarray, grid) -> np.ndarray:
    """X_Rtilde = P_{>=0} X_R(u_{>=0}) + P_{<=0} X_R(u_{<=0}) - i |u_0|^2 u_0 e_0
    of each row of (rows, n_coeff) coefficients, both halves one X_R stack."""
    rows, n = len(c), grid.max_mode
    a = np.concatenate((c, c))
    a[:rows, :n] = 0.0  # u_{>=0} rows, then u_{<=0} rows
    a[rows:, n + 1:] = 0.0
    x = _r_field(a, grid)
    x[:rows, :n] = 0.0
    x[rows:, n + 1:] = 0.0
    out = x[:rows] + x[rows:]
    out[:, n] -= 1j * np.abs(c[:, n]) ** 2 * c[:, n]
    return out


def _quadratic_energy(c: np.ndarray, grid) -> float:
    """H0 of one coefficient row."""
    return 0.5 * float(np.sum(np.abs(grid.modes()) * np.abs(c) ** 2))


def _euler_value(c: np.ndarray, x: np.ndarray) -> float:
    """A real quartic G read off its field x = X_G at one coefficient row
    c by Euler's identity, 4 G(u) = Im (u | X_G(u))."""
    return 0.25 * float(np.imag(np.vdot(x, c)))


#: the rows field of each quartic functional
_QUARTIC_FIELDS = {R: _r_field, RTILDE: _rtilde_field, F: _generator_field}


def functional_value(tag: str, u: TorusField) -> float:
    """Value of H0, R, Rtilde or F at u.

    H0 is the quadratic sum; each quartic G is read off its field by
    Euler's identity 4 G(u) = Im (u | X_G(u)).
    """
    if tag == H0:
        return _quadratic_energy(u.coeff, u.grid)
    return _euler_value(u.coeff, vector_field(tag, u).coeff)


def vector_field(tag: str, u: TorusField) -> TorusField:
    """Hamiltonian vector field X(u), coefficient-wise -2i d/d(conj u_k).

    X_H0 is linear (-i|D|u); the three quartic functionals have cubic fields.
    """
    if tag == H0:
        return TorusField(u.grid, -1j * np.abs(u.grid.modes()) * u.coeff)
    if tag not in _QUARTIC_FIELDS:
        raise ValueError(f"unknown functional tag {tag!r}")
    return TorusField(u.grid, _QUARTIC_FIELDS[tag](u.coeff[np.newaxis], u.grid)[0])


def poisson_bracket(tag_a: str, tag_b: str, u: TorusField) -> float:
    """{A, B}(u) = omega(X_A, X_B) = Im (X_A(u) | X_B(u))."""
    return float(np.imag(inner(vector_field(tag_a, u), vector_field(tag_b, u))))


# ---------------------------------------------------------------------------
# the canonical flow chi_eps = exp(eps^2 X_F)
# ---------------------------------------------------------------------------

def _flow_rows(u: TorusField, eps: tuple, sigma: float) -> np.ndarray:
    """phi_sigma(u) for each eps, as the rows of one (len(eps), n_coeff)
    array with eps^2 as a column, stepped by the ETDRK4 stepper with the
    scalar symbol 0 (classical RK4 in exact arithmetic)."""
    if any(e < 0 for e in eps):
        raise ValueError(f"eps must be nonnegative, got {eps}")
    b111 = besov_norm(u)
    for e in eps:
        if e * b111 > FLOW_SMALLNESS:
            raise ValueError(
                f"eps = {e}: eps * ||u||_B111 = {e * b111:.3g} exceeds the "
                f"smallness threshold {FLOW_SMALLNESS}"
            )
    c = np.tile(u.coeff, (len(eps), 1))
    if sigma == 0.0 or not any(eps):
        return c
    eps_sq = np.array([[e**2] for e in eps])
    h = sigma / FLOW_SUBSTEPS
    stepper = _ETDRK4Stepper(
        _weights(0.0, h),
        lambda arr, out: np.multiply(eps_sq, _generator_field(arr, u.grid), out=out), h)
    for _ in range(FLOW_SUBSTEPS):
        c = stepper.step(c)
        if not np.all(np.isfinite(c)):
            raise RuntimeError("normal_form_flow: non-finite state")
    return c


def normal_form_flow(u: TorusField, eps: float, sigma: float) -> TorusField:
    """phi_sigma(u): RK4 integration of d(phi)/d(sigma) = eps^2 X_F(phi).

    Requires eps * ||u||_{B111} below FLOW_SMALLNESS; the sigma-equation
    is smooth and non-stiff, so FLOW_SUBSTEPS substeps resolve it far
    below the package tolerances.  sigma = 1 is chi_eps, sigma = -1 its
    inverse.
    """
    return TorusField(u.grid, _flow_rows(u, (eps,), sigma)[0])


def chi_flow(u: TorusField, eps: float) -> TorusField:
    """chi_eps(u); its inverse is normal_form_flow(u, eps, -1.0)."""
    return normal_form_flow(u, eps, 1.0)


def taylor_residual(u: TorusField, eps):
    """| (H0 + eps^2 R)(chi_eps(u)) - H0(u) - eps^2 Rtilde(u) |.

    The canonical transformation turns H0 + eps^2 R into
    H0 + eps^2 Rtilde up to a fourth-order remainder, so this residual
    scales like eps^4 at fixed u.  For a sequence of eps the flows run
    as one stack and the result is an array, one residual per eps; a
    float eps gives a float.
    """
    single = np.ndim(eps) == 0
    eps = (eps,) if single else tuple(eps)
    moved = _flow_rows(u, eps, 1.0)
    h0, r_tilde = functional_value(H0, u), functional_value(RTILDE, u)
    residuals = np.array([
        abs(_quadratic_energy(row, u.grid) + e**2 * _euler_value(row, x)
            - (h0 + e**2 * r_tilde))
        for e, row, x in zip(eps, moved, _r_field(moved, u.grid))
    ])
    return float(residuals[0]) if single else residuals
