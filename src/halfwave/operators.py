"""Elementary spectral operators: projections, D0^{-1}, dealiased products.

Conventions: the inner product is (u|v) = (1/2pi) int u conj(v) dx, so
Parseval is coefficient-wise, (u|v) = sum_k u_k conj(v_k), and single
modes e^{ikx} have unit L2 norm.  The analytic projection keeps modes
k >= 0 (the k = 0 mode belongs to the plus part).
"""

from __future__ import annotations

import numpy as np

from .fields import GridSpec, TorusField

def _pad(coeff: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Zero-padded spectra of band coefficients along the last axis.

    Mode k sits at slot k mod M: modes 0..N at slots 0..N and the
    negative modes -N..-1 (none on an analytic grid) at M-N..M-1, so the
    scatter is two slice copies.
    """
    n, m, neg = grid.max_mode, grid.padded_len, _negative_modes(grid)
    padded = np.zeros(coeff.shape[:-1] + (m,), dtype=np.complex128)
    padded[..., : n + 1] = coeff[..., neg:]
    padded[..., m - neg:] = coeff[..., :neg]
    return padded


def _band(spectrum: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The band coefficients of padded spectra (inverse of _pad)."""
    n, m, neg = grid.max_mode, grid.padded_len, _negative_modes(grid)
    return np.concatenate((spectrum[..., m - neg:], spectrum[..., : n + 1]), axis=-1)


def _negative_modes(grid: GridSpec) -> int:
    """How many modes k < 0 the band holds: N, or 0 on an analytic grid."""
    return grid.n_coeff - grid.max_mode - 1


def _cubic_scratch(shape, grid: GridSpec):
    """The work arrays of _cubic for band coefficients of the given shape:
    the zero-padded spectra, the grid values (then the spectra of the
    product, transformed in place) and |u|^2 (a complex array whose
    imaginary part stays 0)."""
    padded = tuple(shape[:-1]) + (grid.padded_len,)
    return tuple(np.zeros(padded, dtype=np.complex128) for _ in range(3))


def _cubic(coeff: np.ndarray, grid: GridSpec, out=None, scratch=None) -> np.ndarray:
    """Band coefficients of |u|^2 u for each row of band coefficients: the
    dealiased cubic, one transform each way on the padded grid.

    On a full band the degree 3N < padded_len - N keeps it alias-free
    (M >= 4N + 1).  On an analytic grid only modes 0..N are returned,
    which no aliased copy of modes -N..2N reaches once M >= 2N + 1; the
    modes k < 0 of |u|^2 u are dropped there, so it computes
    P_+(|u|^2 u).

    The result goes to out (a new array if None), which must not overlap
    coeff.  scratch is _cubic_scratch(coeff.shape, grid), kept by a
    caller that calls again on the same shape: only the band slots of
    its padded spectra are ever written, so their padding stays zero,
    and the call then allocates nothing.
    """
    n, m, neg = grid.max_mode, grid.padded_len, _negative_modes(grid)
    padded, v, modulus = scratch or _cubic_scratch(coeff.shape, grid)
    padded[..., : n + 1] = coeff[..., neg:]
    padded[..., m - neg:] = coeff[..., :neg]
    np.fft.ifft(padded, out=v)
    # |v|^2 in the real part: v times it is the complex product numpy
    # forms with a real factor, without a cast buffer
    square = modulus.real
    np.abs(v, out=square)
    np.square(square, out=square)
    v *= modulus
    np.fft.fft(v, out=v)
    if out is None:
        out = np.empty(coeff.shape, dtype=np.complex128)
    out[..., :neg] = v[..., m - neg:]
    out[..., neg:] = v[..., : n + 1]
    out *= m * m
    return out


def to_grid_values(f: TorusField) -> np.ndarray:
    """Values of f at the padded quadrature points x_j = 2 pi j / M."""
    return np.fft.ifft(_pad(f.coeff, f.grid)) * f.grid.padded_len


def from_grid_values(grid: GridSpec, values: np.ndarray) -> TorusField:
    """Band coefficients of a function sampled on the padded grid.

    Exact whenever the sampled function is a trigonometric polynomial of
    degree < padded_len - max_mode (no aliased copy reaches the band).
    """
    return TorusField(grid, _band(np.fft.fft(values), grid) / grid.padded_len)


def inner(f: TorusField, g: TorusField) -> complex:
    """(f|g) = sum_k f_k conj(g_k)."""
    f._check_grid(g)
    return complex(np.vdot(g.coeff, f.coeff))


def project_plus(f: TorusField) -> TorusField:
    """Keep modes k >= 0 (analytic part)."""
    coeff = f.coeff.copy()
    coeff[: f.grid.max_mode] = 0.0
    return TorusField(f.grid, coeff)


def project_minus(f: TorusField) -> TorusField:
    """Keep modes k < 0; complements project_plus."""
    coeff = f.coeff.copy()
    coeff[f.grid.max_mode:] = 0.0
    return TorusField(f.grid, coeff)


def _d0_inverse(grid: GridSpec) -> np.ndarray:
    """The multiplier 1/k of D0^{-1} on the band, with the k = 0 mode zeroed."""
    k = grid.modes()
    inv = np.zeros_like(k, dtype=np.float64)
    nonzero = k != 0
    inv[nonzero] = 1.0 / k[nonzero]
    return inv


def product(f: TorusField, g: TorusField) -> TorusField:
    """Exact band coefficients of the pointwise product f*g (degree <= 2N)."""
    f._check_grid(g)
    return from_grid_values(f.grid, to_grid_values(f) * to_grid_values(g))


def triple_product(f: TorusField, g: TorusField, h: TorusField) -> TorusField:
    """Exact band coefficients of the pointwise product f*g*h.

    Computed in a single pass on the padded grid; the product has degree
    <= 3N < padded_len - N, so the retained band is alias-free.
    """
    f._check_grid(g)
    f._check_grid(h)
    vals = to_grid_values(f) * to_grid_values(g) * to_grid_values(h)
    return from_grid_values(f.grid, vals)


def cubic_term(a: TorusField, b: TorusField, c: TorusField) -> TorusField:
    """Band coefficients of a * conj(b) * c (the cubic nonlinearity).

    Conjugate-linear in the second argument, linear in the first and third.
    """
    a._check_grid(b)
    a._check_grid(c)
    vals = to_grid_values(a) * np.conj(to_grid_values(b)) * to_grid_values(c)
    return from_grid_values(a.grid, vals)
