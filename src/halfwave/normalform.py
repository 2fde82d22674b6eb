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

Every functional and Hamiltonian vector field below ships in two
evaluations that are cross-validated against each other: a literal
quadruple sum over the retained band ("direct_sum", O(N^3), small grids
only) and an assembly from products, conjugations, projections and the
inverse derivative ("closed_form", FFT-based).  On band-limited fields
with spectral support in [-N/4, N/4] the two agree to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TorusField
from .norms import besov_norm, charge
from .operators import (
    conjugate,
    cubic_term,
    inner,
    invert_d0,
    product,
    project_minus,
    project_plus,
    reflect,
    to_grid_values,
    triple_product,
)

# tags for the four resonance families
ALL_NON_NEGATIVE = "all_non_negative"
ALL_NON_POSITIVE = "all_non_positive"
PAIR_12_34 = "pair_12_34"
PAIR_14_32 = "pair_14_32"
NON_RESONANT = "non_resonant"

# functional tags
H0 = "h0"
R = "r"
RTILDE = "r_tilde"
F = "f"
_TAGS = (H0, R, RTILDE, F)

DIRECT_SUM = "direct_sum"
CLOSED_FORM = "closed_form"

DIRECT_SUM_MAX_MODE = 32
ENUMERATION_MAX = 40

#: default smallness threshold for the canonical flow: eps * ||u||_B111
FLOW_SMALLNESS = 0.1
FLOW_SUBSTEPS = 16


@dataclass(frozen=True)
class QuadrupleKey:
    k1: int
    k2: int
    k3: int
    k4: int

    @property
    def zero_sum(self) -> bool:
        return self.k1 - self.k2 + self.k3 - self.k4 == 0

    def as_tuple(self):
        return (self.k1, self.k2, self.k3, self.k4)


def phase(q: QuadrupleKey) -> int:
    """|k1| - |k2| + |k3| - |k4|; its vanishing defines resonance."""
    return abs(q.k1) - abs(q.k2) + abs(q.k3) - abs(q.k4)


def classify(q: QuadrupleKey) -> frozenset:
    """All satisfied resonance cases; empty iff the quadruple is in none.

    On the zero-sum set, an empty result forces phase(q) != 0.
    """
    ks = q.as_tuple()
    cases = set()
    if all(k >= 0 for k in ks):
        cases.add(ALL_NON_NEGATIVE)
    if all(k <= 0 for k in ks):
        cases.add(ALL_NON_POSITIVE)
    if q.k1 == q.k2 and q.k3 == q.k4:
        cases.add(PAIR_12_34)
    if q.k1 == q.k4 and q.k3 == q.k2:
        cases.add(PAIR_14_32)
    return frozenset(cases)


def f_coeff(q: QuadrupleKey) -> complex:
    """Generator coefficient i / (4 phase), zero on the resonant set.

    Defined on the momentum-conserving (zero-sum) set only.  The phase
    flips sign under (k1,k2,k3,k4) -> (k2,k1,k4,k3), so the purely
    imaginary coefficient obeys f(q) = conj(f(swap)) - the relation that
    makes the assembled quartic real-valued.
    """
    if not q.zero_sum:
        raise ValueError(f"{q} violates k1 - k2 + k3 - k4 = 0")
    p = phase(q)
    if p == 0:
        return 0.0 + 0.0j
    return 1j / (4.0 * p)


def enumerate_resonances(max_abs: int):
    """All zero-sum quadruples with |k_j| <= max_abs and phase = 0."""
    if max_abs > ENUMERATION_MAX:
        raise ValueError(f"enumeration is O(K^3); max_abs <= {ENUMERATION_MAX}")
    rng = np.arange(-max_abs, max_abs + 1)
    k1, k2, k3 = np.meshgrid(rng, rng, rng, indexing="ij")
    k4 = k1 - k2 + k3
    ok = (np.abs(k4) <= max_abs) & (
        np.abs(k1) - np.abs(k2) + np.abs(k3) - np.abs(k4) == 0
    )
    quads = np.stack([k1[ok], k2[ok], k3[ok], k4[ok]], axis=1)
    return [QuadrupleKey(*map(int, row)) for row in quads]


def resonances_from_cases(max_abs: int):
    """The resonant set generated directly from the four case families."""
    out = set()
    nonneg = np.arange(0, max_abs + 1)
    a, b, c = np.meshgrid(nonneg, nonneg, nonneg, indexing="ij")
    d = a - b + c
    ok = (d >= 0) & (d <= max_abs)
    for row in np.stack([a[ok], b[ok], c[ok], d[ok]], axis=1):
        t = tuple(int(x) for x in row)
        out.add(t)
        out.add(tuple(-x for x in t))
    rng = range(-max_abs, max_abs + 1)
    for i in rng:
        for j in rng:
            out.add((i, i, j, j))
            out.add((i, j, j, i))
    return {QuadrupleKey(*t) for t in out}


def coefficient_identity_max_error(max_abs: int = 20) -> float:
    """Exhaustive check of i*phase*f + r = rtilde on the zero-sum set.

    r is 1/4 off the k1 = k2 and k1 = k4 diagonals; rtilde is 1/4 on the
    sign-definite cases minus those diagonals.  Returns the largest
    absolute violation over |k_j| <= max_abs.
    """
    rng = np.arange(-max_abs, max_abs + 1)
    k1, k2, k3 = np.meshgrid(rng, rng, rng, indexing="ij")
    k4 = k1 - k2 + k3
    ok = np.abs(k4) <= max_abs
    k1, k2, k3, k4 = k1[ok], k2[ok], k3[ok], k4[ok]
    ph = np.abs(k1) - np.abs(k2) + np.abs(k3) - np.abs(k4)
    f = np.where(ph != 0, 1j / (4.0 * np.where(ph != 0, ph, 1)), 0.0)
    off_diag = (k1 != k2) & (k1 != k4)
    r = 0.25 * off_diag
    sign_definite = ((k1 >= 0) & (k2 >= 0) & (k3 >= 0) & (k4 >= 0)) | (
        (k1 <= 0) & (k2 <= 0) & (k3 <= 0) & (k4 <= 0)
    )
    rtilde = 0.25 * (sign_definite & off_diag)
    return float(np.max(np.abs(1j * ph * f + r - rtilde)))


# ---------------------------------------------------------------------------
# quadruple-sum machinery (direct evaluations)
# ---------------------------------------------------------------------------


def _check_direct(u: TorusField):
    if u.grid.max_mode > DIRECT_SUM_MAX_MODE:
        raise ValueError(
            f"direct_sum evaluation is O(N^3); max_mode <= {DIRECT_SUM_MAX_MODE}"
        )


def _band_mesh(u: TorusField):
    n = u.grid.max_mode
    rng = np.arange(-n, n + 1)
    k1, k2, k3 = np.meshgrid(rng, rng, rng, indexing="ij")
    k4 = k1 - k2 + k3
    ok = np.abs(k4) <= n
    return n, k1[ok], k2[ok], k3[ok], k4[ok]


def _functional_direct(tag: str, u: TorusField) -> float:
    _check_direct(u)
    n, k1, k2, k3, k4 = _band_mesh(u)
    c = u.coeff
    term = c[k1 + n] * np.conj(c[k2 + n]) * c[k3 + n] * np.conj(c[k4 + n])
    ph = np.abs(k1) - np.abs(k2) + np.abs(k3) - np.abs(k4)
    if tag == F:
        coef = np.where(ph != 0, 1j / (4.0 * np.where(ph != 0, ph, 1)), 0.0)
        total = np.sum(coef * term)
    else:
        weight = 1.0 - (k1 == k2) - (k1 == k4)
        if tag == RTILDE:
            weight = weight * (ph == 0)
        total = 0.25 * np.sum(weight * term)
    return float(np.real(total))


def _vector_field_direct(tag: str, u: TorusField) -> TorusField:
    _check_direct(u)
    n = u.grid.max_mode
    rng = np.arange(-n, n + 1)
    k1, k3, k4 = np.meshgrid(rng, rng, rng, indexing="ij")
    q = k1 + k3 - k4
    ok = np.abs(q) <= n
    k1, k3, k4, q = k1[ok], k3[ok], k4[ok], q[ok]
    c = u.coeff
    term = c[k1 + n] * c[k3 + n] * np.conj(c[k4 + n])
    ph = np.abs(k1) - np.abs(q) + np.abs(k3) - np.abs(k4)
    if tag == F:
        coef = np.where(ph != 0, 1j / (4.0 * np.where(ph != 0, ph, 1)), 0.0)
        contrib = -4j * coef * term
    else:
        weight = 1.0 - (k1 == q) - (k1 == k4)
        if tag == RTILDE:
            weight = weight * (ph == 0)
        contrib = -1j * weight * term
    out = np.zeros(2 * n + 1, dtype=np.complex128)
    np.add.at(out, q + n, contrib)
    return TorusField(u.grid, out)


# ---------------------------------------------------------------------------
# closed-form machinery
# ---------------------------------------------------------------------------


def _generator_terms(u: TorusField):
    """The three quartic integrals whose combination gives the generator.

    t1 = (D0^{-1} u_-, |u_+|^2 u_+), t2 = (D0^{-1} u_+, |u_-|^2 u_-),
    t3 = (D0^{-1} |u_+|^2, |u_-|^2); all evaluated by exact quadrature
    on the padded grid.
    """
    up, um = project_plus(u), project_minus(u)
    vp, vm = to_grid_values(up), to_grid_values(um)
    jm = to_grid_values(invert_d0(um))
    jp = to_grid_values(invert_d0(up))
    j_abs_p = to_grid_values(
        invert_d0(product(up, conjugate(up)))
    )
    t1 = np.mean(jm * np.abs(vp) ** 2 * np.conj(vp))
    t2 = np.mean(jp * np.abs(vm) ** 2 * np.conj(vm))
    t3 = np.mean(j_abs_p * np.abs(vm) ** 2)
    return complex(t1), complex(t2), complex(t3)


def _generator_value(u: TorusField) -> float:
    t1, t2, t3 = _generator_terms(u)
    return 0.5 * float(np.imag(t1 - t2 - t3))


def _generator_field(u: TorusField) -> TorusField:
    """Hamiltonian vector field of the generator, X_F = -2i dF/d(conj u).

    Assembled from the chain rule applied to the three closed-form
    integrals: with S = t1 - t2 - t3 and entrywise conjugation on
    coefficient arrays, X_F = -(dS/d(conj u) - conj(dS/du)) / 2.
    """
    grid = u.grid
    up, um = project_plus(u), project_minus(u)
    cp, cm = conjugate(up), conjugate(um)
    jp = invert_d0(up)
    jm = invert_d0(um)
    abs_p = product(up, cp)
    abs_m = product(um, cm)
    j_abs_p = invert_d0(abs_p)
    j_abs_m = invert_d0(abs_m)

    # d/d(conj u), one projection per integral term
    g_bar = (
        2.0 * project_plus(triple_product(jm, up, cp)).coeff
        - 2.0 * project_minus(triple_product(jp, um, cm)).coeff
        - (-project_plus(product(up, j_abs_m)).coeff
           + project_minus(product(um, j_abs_p)).coeff)
    )

    # d/du, assembled with the reflection rho(f)(x) = f(-x)
    d_t1 = (
        project_minus(invert_d0(reflect(triple_product(up, cp, cp)))).coeff
        + project_plus(reflect(triple_product(jm, cp, cp))).coeff
    )
    d_t2 = (
        project_plus(invert_d0(reflect(triple_product(um, cm, cm)))).coeff
        + project_minus(reflect(triple_product(jp, cm, cm))).coeff
    )
    d_t3 = (
        -project_plus(reflect(product(cp, j_abs_m))).coeff
        + project_minus(reflect(product(j_abs_p, cm))).coeff
    )
    g_u = d_t1 - d_t2 - d_t3

    return TorusField(grid, -0.5 * (g_bar - np.conj(g_u)))


def _quadratic_energy(u: TorusField) -> float:
    k = u.grid.modes()
    return 0.5 * float(np.sum(np.abs(k) * np.abs(u.coeff) ** 2))


def _resonant_quartic_closed(u: TorusField) -> float:
    """Rtilde = (||u_+||_{L4}^4 + ||u_-||_{L4}^4)/4
    + Re((u|1)(u_-^2|u_-)) - (||u_+||_{L2}^4 + ||u_-||_{L2}^4)/2."""
    up, um = project_plus(u), project_minus(u)
    vp, vm = to_grid_values(up), to_grid_values(um)
    l4p = float(np.mean(np.abs(vp) ** 4))
    l4m = float(np.mean(np.abs(vm) ** 4))
    qp, qm = charge(up), charge(um)
    u0 = u.mode(0)
    cross = complex(np.mean(vm**2 * np.conj(vm)))  # (u_-^2 | u_-)
    return 0.25 * (l4p + l4m) + float(np.real(u0 * np.conj(cross))) - 0.5 * (qp**2 + qm**2)


def _resonant_quartic_field(u: TorusField) -> TorusField:
    up, um = project_plus(u), project_minus(u)
    qp, qm = charge(up), charge(um)
    u0 = u.mode(0)
    vm = to_grid_values(um)
    cross = complex(np.mean(vm**2 * np.conj(vm)))  # (u_-^2 | u_-)
    um_sq = product(um, um)
    abs_m = product(um, conjugate(um))
    ix = (
        project_plus(cubic_term(up, up, up)).coeff
        + project_minus(cubic_term(um, um, um)).coeff
        - 2.0 * qp * up.coeff
        - 2.0 * qm * um.coeff
        + 2.0 * u0 * project_minus(abs_m).coeff
        + np.conj(u0) * um_sq.coeff
    )
    ix[u.grid.max_mode] += cross
    return TorusField(u.grid, -1j * ix)


def functional_value(tag: str, u: TorusField, mode: str = CLOSED_FORM) -> float:
    """Value of H0, R, Rtilde or F at u.

    direct_sum evaluates the literal quadruple sums over the retained
    band; closed_form evaluates the displayed closed expressions by
    exact quadrature.
    """
    if tag not in _TAGS:
        raise ValueError(f"unknown functional tag {tag!r}")
    if mode == DIRECT_SUM:
        if tag == H0:
            return _quadratic_energy(u)
        return _functional_direct(tag, u)
    if mode != CLOSED_FORM:
        raise ValueError(f"unknown mode {mode!r}")
    if tag == H0:
        return _quadratic_energy(u)
    if tag == R:
        vals = to_grid_values(u)
        return 0.25 * float(np.mean(np.abs(vals) ** 4) - 2.0 * charge(u) ** 2)
    if tag == RTILDE:
        return _resonant_quartic_closed(u)
    return _generator_value(u)


def vector_field(tag: str, u: TorusField, mode: str = CLOSED_FORM) -> TorusField:
    """Hamiltonian vector field X(u), coefficient-wise -2i d/d(conj u_k).

    X_H0 is linear (-i|D|u); the three quartic functionals have cubic
    fields.
    """
    if tag not in _TAGS:
        raise ValueError(f"unknown functional tag {tag!r}")
    if tag == H0:
        k = u.grid.modes()
        return TorusField(u.grid, -1j * np.abs(k) * u.coeff)
    if mode == DIRECT_SUM:
        return _vector_field_direct(tag, u)
    if mode != CLOSED_FORM:
        raise ValueError(f"unknown mode {mode!r}")
    if tag == R:
        cubic = cubic_term(u, u, u)
        return TorusField(u.grid, -1j * (cubic.coeff - 2.0 * charge(u) * u.coeff))
    if tag == RTILDE:
        return _resonant_quartic_field(u)
    return _generator_field(u)


def poisson_bracket(tag_a: str, tag_b: str, u: TorusField,
                    mode: str = CLOSED_FORM) -> float:
    """{A, B}(u) = omega(X_A, X_B) = Im (X_A(u) | X_B(u))."""
    xa = vector_field(tag_a, u, mode)
    xb = vector_field(tag_b, u, mode)
    return float(np.imag(inner(xa, xb)))


# ---------------------------------------------------------------------------
# the canonical flow chi_eps = exp(eps^2 X_F)
# ---------------------------------------------------------------------------

def normal_form_flow(u: TorusField, eps: float, sigma: float) -> TorusField:
    """phi_sigma(u): RK4 integration of d(phi)/d(sigma) = eps^2 X_F(phi).

    Requires eps * ||u||_{B111} below FLOW_SMALLNESS; the sigma-equation
    is smooth and non-stiff, so FLOW_SUBSTEPS substeps resolve it far
    below the package tolerances.  sigma = 1 is chi_eps, sigma = -1 its
    inverse.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    size = eps * besov_norm(u)
    if size > FLOW_SMALLNESS:
        raise ValueError(
            f"eps * ||u||_B111 = {size:.3g} exceeds the "
            f"smallness threshold {FLOW_SMALLNESS}"
        )
    if eps == 0.0 or sigma == 0.0:
        return u
    h = sigma / FLOW_SUBSTEPS
    c = u.coeff.copy()
    grid = u.grid
    scale = eps**2

    def rate(arr):
        return scale * _generator_field(TorusField(grid, arr)).coeff

    for _ in range(FLOW_SUBSTEPS):
        a = rate(c)
        b = rate(c + 0.5 * h * a)
        d = rate(c + 0.5 * h * b)
        e = rate(c + h * d)
        c = c + (h / 6.0) * (a + 2.0 * b + 2.0 * d + e)
        if not np.all(np.isfinite(c)):
            raise RuntimeError("normal_form_flow: non-finite state")
    return TorusField(grid, c)


def chi_flow(u: TorusField, eps: float) -> TorusField:
    """chi_eps(u); its inverse is normal_form_flow(u, eps, -1.0)."""
    return normal_form_flow(u, eps, 1.0)


def taylor_residual(u: TorusField, eps: float) -> float:
    """| (H0 + eps^2 R)(chi_eps(u)) - H0(u) - eps^2 Rtilde(u) |.

    The canonical transformation turns H0 + eps^2 R into
    H0 + eps^2 Rtilde up to a fourth-order remainder, so this residual
    scales like eps^4 at fixed u.
    """
    moved = chi_flow(u, eps)
    h_eps = functional_value(H0, moved) + eps**2 * functional_value(R, moved)
    target = functional_value(H0, u) + eps**2 * functional_value(RTILDE, u)
    return abs(h_eps - target)
