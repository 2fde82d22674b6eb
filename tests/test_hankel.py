import math

import numpy as np
import pytest

from halfwave import (
    GridSpec,
    TorusField,
    build_hankel,
    peller_ratio,
    spectral_summary,
)

from conftest import random_analytic_field

#: bands whose Hankel matrix is 2x2 and 3x3
GRID1, GRID2 = GridSpec.with_padding(1), GridSpec.with_padding(2)


def test_matrix_single_mode():
    w = TorusField.from_modes(GRID1, {1: 1.0})
    h = build_hankel(w)
    assert np.array_equal(h.gamma, np.array([[0, 1], [1, 0]], dtype=complex))


def test_matrix_constant():
    w = TorusField.from_modes(GRID1, {0: 0.7})
    h = build_hankel(w)
    assert np.array_equal(h.gamma, np.array([[0.7, 0], [0, 0]], dtype=complex))


def test_matrix_two_modes():
    w = TorusField.from_modes(GRID1, {0: 0.5, 1: 1.0})
    h = build_hankel(w)
    assert np.array_equal(h.gamma, np.array([[0.5, 1.0], [1.0, 0.0]], dtype=complex))


def test_matrix_symmetric(grid16, rng):
    w = random_analytic_field(grid16, rng)
    h = build_hankel(w)
    assert np.array_equal(h.gamma, h.gamma.T)


def test_band_limited_entries_vanish(grid16):
    w = TorusField.from_modes(grid16, {3: 1.0})
    h = build_hankel(w)
    j = np.arange(grid16.max_mode + 1)
    assert h.size == j.size and h.gamma.shape == (j.size, j.size)
    beyond = j[:, None] + j[None, :] > grid16.max_mode
    assert np.all(h.gamma[beyond] == 0)


def test_negative_modes_flagged(grid16):
    w = TorusField.from_modes(grid16, {-1: 1.0, 1: 1.0})
    with pytest.warns(UserWarning):
        h = build_hankel(w)
    assert h.ignored_negative_modes


class TestSpectralSummary:
    def test_single_mode(self):
        s = spectral_summary(build_hankel(TorusField.from_modes(GRID1, {1: 1.0})))
        assert np.allclose(s.singular_values, [1.0, 1.0])
        assert s.trace_norm == pytest.approx(2.0)
        assert np.allclose(s.hw2_eigenvalues, [1.0, 1.0])

    def test_two_mode_trace(self):
        s = spectral_summary(build_hankel(TorusField.from_modes(GRID1, {0: 0.5, 1: 1.0})))
        assert s.trace_norm == pytest.approx(math.sqrt(17.0) / 2.0)

    def test_zero_symbol(self):
        s = spectral_summary(build_hankel(TorusField.zeros(GRID2)))
        assert s.singular_values.shape == (3,)
        assert np.all(s.singular_values == 0)
        assert s.trace_norm == 0

    def test_trace_norm_homogeneous(self, grid16, rng):
        w = random_analytic_field(grid16, rng)
        lam = 0.37
        a = spectral_summary(build_hankel(w)).trace_norm
        b = spectral_summary(build_hankel(lam * w)).trace_norm
        assert b == pytest.approx(lam * a, abs=1e-12)

    def test_eigenvalues_are_squared_singular_values(self, grid16, rng):
        w = random_analytic_field(grid16, rng, decay=1.0)
        s = spectral_summary(build_hankel(w))
        nonzero = s.singular_values > 0
        assert np.allclose(
            s.hw2_eigenvalues[nonzero], s.singular_values[nonzero] ** 2, rtol=1e-10
        )

    def test_translation_invariance(self, grid16, rng):
        w = random_analytic_field(grid16, rng)
        t = 0.61
        shifted = TorusField(grid16, w.coeff * np.exp(-1j * grid16.modes() * t))
        a = spectral_summary(build_hankel(w)).singular_values
        b = spectral_summary(build_hankel(shifted)).singular_values
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, a[0])


class TestPellerRatio:
    def test_constant_symbol(self, grid16):
        assert peller_ratio(TorusField.from_modes(grid16, {0: 0.7})) == pytest.approx(1.0)

    def test_single_oscillating_mode(self, grid16):
        # trace norm 2 against Besov norm 1 under the block convention here
        assert peller_ratio(TorusField.from_modes(grid16, {1: 1.0})) == pytest.approx(2.0)

    def test_scale_invariant(self, grid16, rng):
        w = random_analytic_field(grid16, rng)
        assert peller_ratio(3.7 * w) == pytest.approx(peller_ratio(w), rel=1e-12)

    def test_zero_rejected(self, grid16):
        with pytest.raises(ValueError):
            peller_ratio(TorusField.zeros(grid16))

    def test_bounded_band_over_corpus(self, grid16, rng):
        # the two sides are equivalent norms; empirically the ratio stays
        # well inside [1/4, 4] on decaying analytic fields
        for _ in range(25):
            w = random_analytic_field(grid16, rng, decay=1.0 + 2.0 * rng.random())
            r = peller_ratio(w)
            assert 0.25 <= r <= 4.0
