"""Finite Hankel matrices of analytic symbols and their spectra.

For an analytic symbol w = sum_{k>=0} w_k e^{ikx}, the Hankel operator
h -> P_+(w conj(h)) acts on coefficient sequences as h -> Gamma conj(h)
with Gamma[j, k] = w_{j+k}.  The operator is antilinear; its linear
square is the Hermitian positive matrix Gamma Gamma^H, whose eigenvalues
are the squared singular values of Gamma.  The trace norm (sum of
singular values) is the conserved integrability diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import TorusField
from .norms import besov_norm

#: eigenvalues below this multiple of the largest are reported as zero
NOISE_FLOOR = 1e-13


class EigensolverError(RuntimeError):
    """Raised when the dense eigensolver fails or cross-checks disagree."""


@dataclass(frozen=True)
class HankelTruncation:
    """size x size matrix gamma[j, k] = w_{j+k} of an analytic symbol.

    ignored_negative_modes flags that the symbol carried negative-mode
    coefficients which were dropped when building the matrix.
    """

    size: int
    gamma: np.ndarray
    ignored_negative_modes: bool = False

    def __post_init__(self):
        arr = np.asarray(self.gamma, dtype=np.complex128)
        if arr.shape != (self.size, self.size):
            raise ValueError(f"gamma must be {self.size}x{self.size}, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "gamma", arr)


@dataclass(frozen=True)
class SpectralSummary:
    """Singular values of gamma, their sum, and the eigenvalues of the
    squared operator; the two spectra are computed independently."""

    singular_values: np.ndarray
    trace_norm: float
    hw2_eigenvalues: np.ndarray


def build_hankel(w: TorusField) -> HankelTruncation:
    """(N+1) x (N+1) Hankel matrix of the analytic part of w.

    This size represents a band-limited symbol exactly (all entries with
    j + k > N vanish); negative-mode coefficients are ignored and
    flagged.
    """
    n = w.grid.max_mode
    ignored = bool(np.any(w.coeff[:n] != 0))
    if ignored:
        warnings.warn("symbol has negative-mode coefficients; they are ignored",
                      stacklevel=2)

    # w_m for m = 0 .. 2N, zero beyond the band; row j of the window
    # view is w_j .. w_{j+N}, and HankelTruncation copies it out
    symbol = np.zeros(2 * n + 1, dtype=np.complex128)
    symbol[:n + 1] = w.coeff[n:]
    gamma = np.lib.stride_tricks.sliding_window_view(symbol, n + 1)
    return HankelTruncation(size=n + 1, gamma=gamma, ignored_negative_modes=ignored)


def spectral_summary(h: HankelTruncation) -> SpectralSummary:
    """Singular values of gamma and eigenvalues of gamma gamma^H.

    The two computations are independent (SVD vs Hermitian eigensolver)
    and are cross-checked against each other, at any amplitude: with 2^e
    about the largest entry of gamma, the eigensolver takes the product
    gamma (conj(gamma) 2^-2e), which neither underflows nor overflows, the
    SVD (which rescales its input itself) takes gamma, and both spectra
    are compared scaled by 2^-e.  Every scaling is by a power of two, so
    it rounds nothing; a squared eigenvalue beyond the float range comes
    back as inf or 0.  A cross-check that cannot be computed (a
    non-finite mismatch) fails.
    """
    peak = np.max(np.abs(h.gamma), initial=0.0)
    exponent = int(np.frexp(peak)[1]) if np.isfinite(peak) else 0
    conj = np.conj(h.gamma)
    # on the real and imaginary parts, as a float view of the copy
    np.ldexp(conj.view(np.float64), -2 * exponent, out=conj.view(np.float64))
    try:
        sv = np.linalg.svd(h.gamma, compute_uv=False)
        squared = np.linalg.eigvalsh(h.gamma @ conj)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc

    sv = np.ldexp(np.sort(sv)[::-1], -exponent)
    squared = np.sort(np.maximum(squared, 0.0))[::-1]

    if sv.size and sv[0] != 0:  # a NaN spectrum reaches the comparison and fails it
        scale = sv[0]
        sv = np.where(sv < NOISE_FLOOR * scale, 0.0, sv)
        squared = np.where(squared < (NOISE_FLOOR * scale) ** 2, 0.0, squared)
        mismatch = np.max(np.abs(squared - sv**2)) / scale**2
        if not mismatch <= 1e-9:
            raise EigensolverError(
                f"singular values and squared-operator eigenvalues disagree "
                f"(relative mismatch {mismatch:.3e})"
            )
    # a squared value beyond the float range rounds to inf (or to 0),
    # as the product itself would
    with np.errstate(over="ignore", under="ignore"):
        sv, squared = np.ldexp(sv, exponent), np.ldexp(squared, 2 * exponent)
    return SpectralSummary(
        singular_values=sv,
        trace_norm=float(np.sum(sv)),
        hw2_eigenvalues=squared,
    )


def peller_ratio(w: TorusField) -> float:
    """trace_norm(Hankel(w)) / ||w||_{B111}: the trace norm of a Hankel
    matrix is equivalent to the Besov norm of its symbol, so this ratio
    stays in a fixed band over any corpus of analytic fields."""
    if not np.any(w.coeff != 0):
        raise ValueError("peller_ratio requires a nonzero field")
    besov = besov_norm(w)
    summary = spectral_summary(build_hankel(w))
    return summary.trace_norm / besov
