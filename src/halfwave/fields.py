"""Band-limited fields on the one dimensional torus, stored spectrally.

A field u(x) = sum_{|k| <= N} u_k e^{ikx} is represented by its complex
coefficients on the retained band k = -N..N.  All products are evaluated
on a zero-padded grid of length M: a triple product of degree-N
polynomials has degree 3N, so M >= 4N + 1 guarantees that no aliased
copy wraps back into the retained band.

An analytic state (modes 0..N only) under a projected flow needs less:
|u|^2 u then has modes -N..2N, and P_+ keeps 0..N, which no aliased copy
reaches once M >= 2N + 1.  The integrator steps such states on
_AnalyticGrid, whose band is modes 0..N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fast_transform_length(n: int) -> int:
    """Smallest 5-smooth integer >= n (a cheap FFT length), for n >= 1."""
    if n < 1:
        # the search below would spin forever at 0, which every prime divides
        raise ValueError(f"a transform length must be at least 1, got {n}")
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


@dataclass(frozen=True)
class GridSpec:
    """Retained band [-max_mode, max_mode] plus the padded FFT length.

    The padded length is fixed for a run; all dealiased products and
    quadratures of a field live on this grid.
    """

    max_mode: int
    padded_len: int

    #: the smallest alias-free padded length is _PAD_FACTOR * N + 1
    _PAD_FACTOR = 4

    def __post_init__(self):
        if self.max_mode < 1:
            raise ValueError(f"max_mode must be >= 1, got {self.max_mode}")
        least = self._PAD_FACTOR * self.max_mode + 1
        if self.padded_len < least:
            raise ValueError(
                f"padded_len must be >= {self._PAD_FACTOR}*max_mode + 1 = {least}, "
                f"got {self.padded_len}"
            )

    @classmethod
    def with_padding(cls, max_mode: int) -> "GridSpec":
        """Grid with the default padded length (smallest 5-smooth >=
        4N+1, or 2N+1 for an analytic grid)."""
        return cls(max_mode, fast_transform_length(cls._PAD_FACTOR * max_mode + 1))

    @property
    def n_coeff(self) -> int:
        return 2 * self.max_mode + 1

    def modes(self) -> np.ndarray:
        """Integer wavenumbers of the retained band, in order -N..N."""
        return np.arange(-self.max_mode, self.max_mode + 1)


@dataclass(frozen=True)
class _AnalyticGrid(GridSpec):
    """The band 0..max_mode of an analytic state under a projected flow;
    P_+(|u|^2 u) there is alias-free once padded_len >= 2N + 1."""

    _PAD_FACTOR = 2

    @property
    def n_coeff(self) -> int:
        return self.max_mode + 1

    def modes(self) -> np.ndarray:
        """Integer wavenumbers of the retained band, in order 0..N."""
        return np.arange(self.max_mode + 1)


@dataclass(frozen=True, eq=False)
class TorusField:
    """Immutable spectral field: coefficients indexed k = -N..N.

    coeff[k + N] is the coefficient of e^{ikx}.  Equality means equal
    grid and equal coefficients.
    """

    grid: GridSpec
    coeff: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeff, dtype=np.complex128)
        if arr.shape != (self.grid.n_coeff,):
            raise ValueError(
                f"coefficient array must have length {self.grid.n_coeff}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeff", arr)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, grid: GridSpec) -> "TorusField":
        return cls(grid, np.zeros(grid.n_coeff, dtype=np.complex128))

    @classmethod
    def from_modes(cls, grid: GridSpec, amplitudes: dict) -> "TorusField":
        """Field from a {mode: amplitude} mapping."""
        coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
        for k, c in amplitudes.items():
            if abs(k) > grid.max_mode:
                raise ValueError(f"mode {k} outside retained band |k| <= {grid.max_mode}")
            coeff[k + grid.max_mode] = c
        return cls(grid, coeff)

    # -- element access -------------------------------------------------

    def mode(self, k: int) -> complex:
        if abs(k) > self.grid.max_mode:
            return 0.0 + 0.0j
        return complex(self.coeff[k + self.grid.max_mode])

    # -- algebra (pure, allocating) --------------------------------------

    def _check_grid(self, other: "TorusField"):
        if self.grid != other.grid:
            raise ValueError("grid mismatch between fields")

    def __add__(self, other: "TorusField") -> "TorusField":
        self._check_grid(other)
        return TorusField(self.grid, self.coeff + other.coeff)

    def __sub__(self, other: "TorusField") -> "TorusField":
        self._check_grid(other)
        return TorusField(self.grid, self.coeff - other.coeff)

    def __mul__(self, scalar) -> "TorusField":
        return TorusField(self.grid, self.coeff * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "TorusField":
        return TorusField(self.grid, -self.coeff)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusField):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.coeff, other.coeff)

    def __hash__(self):
        return hash((self.grid, self.coeff.tobytes()))
