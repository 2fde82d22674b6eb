"""Finite Hankel matrices of symbols and their spectra.

The Hankel operator h -> P_+(w conj(h)) of a symbol w acts on analytic
h as h -> Gamma conj(h), Gamma[j, k] = w_{j+k} for j, k >= 0: the matrix
of P_+ w, built from w_0 .. w_N on a band.  The operator is antilinear;
its linear square is the Hermitian positive matrix Gamma Gamma^H, whose
eigenvalues are the squared singular values of Gamma.  The trace norm
(sum of singular values) is the conserved integrability diagnostic.
"""

from __future__ import annotations

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
    """(N+1) x (N+1) matrix gamma[j, k] = w_{j+k} of an analytic symbol
    band-limited to the modes 0..N, given as its N+1 values w_0 .. w_N.

    symbol holds w_0 .. w_N, 0 .. 0 (2N+1 values) as a read-only copy,
    and gamma is its read-only sliding window of width N+1, so no
    (N+1) x (N+1) array is held.
    """

    symbol: np.ndarray

    def __post_init__(self):
        band = np.asarray(self.symbol)
        if band.ndim != 1 or band.size == 0:
            raise ValueError(f"symbol must hold w_0 .. w_N, got shape {band.shape}")
        w = np.concatenate((band, np.zeros(band.size - 1)), dtype=np.complex128)
        w.flags.writeable = False
        object.__setattr__(self, "symbol", w)

    @property
    def size(self) -> int:
        return self.symbol.size // 2 + 1

    @property
    def gamma(self) -> np.ndarray:
        return np.lib.stride_tricks.sliding_window_view(self.symbol, self.size)


@dataclass(frozen=True)
class SpectralSummary:
    """Singular values of gamma, their sum, and the eigenvalues of the
    squared operator; the two spectra are computed independently."""

    singular_values: np.ndarray
    trace_norm: float
    hw2_eigenvalues: np.ndarray


def build_hankel(w: TorusField) -> HankelTruncation:
    """(N+1) x (N+1) Hankel matrix of P_+ w, built from w_0 .. w_N.

    Dropping w's negative modes is exact: for analytic h, P_+(w conj(h))
    has the coefficients sum_{k>=0} w_{j+k} conj(h_k), j >= 0, which read
    no negative mode of w.  The size represents a band-limited symbol
    exactly (all entries with j + k > N vanish).
    """
    return HankelTruncation(w.coeff[w.grid.max_mode:])


def _gram(h: HankelTruncation, exponent: int) -> np.ndarray:
    """Lower triangle of gamma gamma^H 2^-2e in O(N^2) operations.

    Since w_m = 0 past N, entry (j + d, j) is the suffix sum
    sum_{m >= j} w_{m+d} conj(w_m) 2^-2e down a diagonal.  Row m,
    column d of `diagonals` is the slot of entry (m + d, m) of the
    returned column-major matrix; it first takes the product
    gamma[m, d] conj(w_m) 2^-2e, then the sum of its column from the
    last row up.  Products with m + d > N are zero and land in the
    strict upper triangle or past the matrix, as do the spare slots;
    the Hermitian eigensolver reads the lower triangle only.
    """
    n = h.size
    weight = np.conj(h.symbol[:n])
    # on the real and imaginary parts, as a float view of the copy
    np.ldexp(weight.view(np.float64), -2 * exponent, out=weight.view(np.float64))
    buf = np.zeros(n * (n + 1), dtype=np.complex128)
    diagonals = buf.reshape(n, n + 1)[:, :n]
    np.multiply(h.gamma, weight[:, None], out=diagonals)
    np.cumsum(diagonals[::-1], axis=0, out=diagonals[::-1])
    return buf[:n * n].reshape(n, n).T


def spectral_summary(h: HankelTruncation) -> SpectralSummary:
    """Singular values of gamma and eigenvalues of gamma gamma^H.

    The two computations are independent (SVD vs Hermitian eigensolver)
    and are cross-checked against each other, at any amplitude: with 2^e
    about the largest symbol value, the SVD (which rescales its input
    itself) takes gamma, the eigensolver takes the Gram matrix
    gamma gamma^H 2^-2e, which neither underflows nor overflows, and
    both spectra are compared scaled by 2^-e.  The Gram matrix is no
    matrix product: its lower triangle is built from diagonal suffix
    sums of the symbol in O(N^2) operations and one (N+1) x (N+1)
    buffer (_gram), which lives only for the eigensolver call.  Every
    scaling is by a power of two, so it rounds nothing; a squared
    eigenvalue beyond the float range comes back as inf or 0.  A
    cross-check that cannot be computed (a non-finite mismatch) fails.
    """
    peak = np.max(np.abs(h.symbol))
    exponent = int(np.frexp(peak)[1]) if np.isfinite(peak) else 0
    try:
        sv = np.linalg.svd(h.gamma, compute_uv=False)
        squared = np.linalg.eigvalsh(_gram(h, exponent))
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
