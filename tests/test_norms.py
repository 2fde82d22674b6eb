import math

import numpy as np
import pytest

from halfwave import GridSpec, TorusField, norm
from halfwave.norms import BESOV, L1, L2, L4, MOMENTUM, SOBOLEV, besov_blocks
from halfwave.operators import to_grid_values

from conftest import random_field


def test_single_mode_sobolev(grid16):
    f = TorusField.from_modes(grid16, {-3: 2.0})
    assert norm(f, SOBOLEV, s=1.0) == pytest.approx(math.sqrt(40.0))


def test_l4_hand_value(grid16):
    f = TorusField.from_modes(grid16, {0: 1.0, 1: 1.0})
    assert norm(f, L4) ** 4 == pytest.approx(6.0, rel=1e-12)


def test_besov_single_modes(grid16):
    # |k| <= 1 carries weight 1; the block 2^j < |k| <= 2^{j+1} carries 2^j
    assert norm(TorusField.from_modes(grid16, {4: 1.0}), BESOV) == pytest.approx(2.0)
    assert norm(TorusField.from_modes(grid16, {1: 1.0}), BESOV) == pytest.approx(1.0)
    assert norm(TorusField.from_modes(grid16, {16: 1.0}), BESOV) == pytest.approx(8.0)


def test_besov_blocks_tile_band(grid16):
    cover = np.zeros(grid16.n_coeff, dtype=int)
    for _, mask in besov_blocks(grid16):
        cover += mask.astype(int)
    assert np.all(cover == 1)


@pytest.mark.parametrize("n", [16, 128, 512])
def test_besov_norm_equals_per_block_reference(n, rng):
    """The batched transform gives exactly the block-by-block sum."""
    grid = GridSpec.with_padding(n)
    f = random_field(grid, rng)
    want = 0.0
    for weight, mask in besov_blocks(grid):
        block = TorusField(grid, np.where(mask, f.coeff, 0.0))
        want += weight * float(np.mean(np.abs(to_grid_values(block))))
    assert norm(f, BESOV) == want


def test_momentum_signed(grid16):
    f = TorusField.from_modes(grid16, {-3: 1.0})
    assert norm(f, MOMENTUM) == pytest.approx(-3.0)
    g = TorusField.from_modes(grid16, {2: 2.0})
    assert norm(g, MOMENTUM) == pytest.approx(8.0)


def test_parseval(grid16, rng):
    f = random_field(grid16, rng)
    quad = math.sqrt(float(np.mean(np.abs(to_grid_values(f)) ** 2)))
    assert norm(f, L2) == pytest.approx(quad, rel=1e-12)


def test_sobolev_monotone_in_s(grid16, rng):
    f = random_field(grid16, rng)
    values = [norm(f, SOBOLEV, s=s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))


def test_grid_max_controlled_by_besov(grid16, rng):
    # sup |f| <= 3 ||f||_B111: each block has at most 2 * 2^j + 1 <= 3 * 2^j
    # modes, and single modes meet the bound with constant 1
    for _ in range(20):
        f = random_field(grid16, rng, decay=0.4)
        grid_max = float(np.max(np.abs(to_grid_values(f))))
        assert grid_max <= 3.0 * norm(f, BESOV) + 1e-12


def test_l1_of_single_mode(grid16):
    f = TorusField.from_modes(grid16, {5: 2.0})
    assert norm(f, L1) == pytest.approx(2.0, rel=1e-12)


def test_sobolev_requires_exponent(grid16):
    f = TorusField.from_modes(grid16, {1: 1.0})
    with pytest.raises(ValueError):
        norm(f, SOBOLEV)
    with pytest.raises(ValueError):
        norm(f, L2, s=1.0)
    with pytest.raises(ValueError):
        norm(f, "nope")
