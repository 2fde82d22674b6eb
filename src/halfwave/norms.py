"""Norms of band-limited torus fields.

- The charge ||f||_{L2}^2 and Sobolev norms are coefficient sums
  (Parseval with the normalized measure dx/2pi).
- The L4 norm is a quadrature on the padded grid.  |f|^4 has degree 4N,
  so it is exact when padded_len >= 4N + 1.
- The Besov norm B^1_{1,1} uses sharp dyadic blocks: S0 keeps |k| <= 1,
  block j keeps 2^j < |k| <= 2^{j+1}, and the norm is
  ||S0 f||_L1 + sum_j 2^j ||block_j f||_L1; each block's L1 norm is
  the padded-grid quadrature (|f| is not band-limited, so it carries a
  quadrature error).
- Momentum sum_k k |u_k|^2 is signed and returned as a real number.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import GridSpec, TorusField
from .operators import _pad, to_grid_values


@lru_cache(maxsize=None)
def besov_blocks(grid: GridSpec):
    """Dyadic partition of the band: [(weight, boolean mask over modes)].

    The first entry is the low block (weight 1, |k| <= 1); block j has
    weight 2^j and covers 2^j < |k| <= 2^{j+1}.  Together the blocks
    tile the retained band exactly.
    """
    k = np.abs(grid.modes())
    blocks = [(1.0, k <= 1)]
    j = 0
    while 2**j < grid.max_mode:
        mask = (k > 2**j) & (k <= 2 ** (j + 1))
        if mask.any():
            blocks.append((float(2**j), mask))
        j += 1
    return tuple(blocks)


def besov_norm(f: TorusField) -> float:
    """sum over blocks of weight * ||block f||_L1, one batched transform
    over all blocks."""
    blocks = besov_blocks(f.grid)
    masks = np.array([mask for _, mask in blocks])
    values = np.fft.ifft(_pad(np.where(masks, f.coeff, 0.0), f.grid)) * f.grid.padded_len
    total = 0.0
    for (weight, _), l1 in zip(blocks, np.mean(np.abs(values), axis=-1)):
        total += weight * float(l1)
    return total


def sobolev_norm(f: TorusField, s: float) -> float:
    k = f.grid.modes()
    return float(np.sqrt(np.sum((1.0 + k.astype(float) ** 2) ** s * np.abs(f.coeff) ** 2)))


def l4_norm(f: TorusField) -> float:
    """||f||_{L4} by exact quadrature on the padded grid."""
    return float(np.mean(np.abs(to_grid_values(f)) ** 4) ** 0.25)


def momentum(f: TorusField) -> float:
    """(Du|u) = sum_k k |u_k|^2; signed."""
    return float(np.sum(f.grid.modes() * np.abs(f.coeff) ** 2))


def charge(f: TorusField) -> float:
    """Q(u) = ||u||_{L2}^2."""
    return float(np.sum(np.abs(f.coeff) ** 2))
