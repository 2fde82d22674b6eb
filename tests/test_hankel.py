import math
import tracemalloc
import warnings

import numpy as np
import pytest

from halfwave import (
    GridSpec,
    TorusField,
    build_hankel,
    peller_ratio,
    project_plus,
    spectral_summary,
)
from halfwave.hankel import EigensolverError, HankelTruncation

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


def test_gamma_is_a_read_only_window(grid16, rng):
    h = build_hankel(random_analytic_field(grid16, rng))
    before = np.array(h.gamma)
    with pytest.raises(ValueError):
        h.gamma[0, 1] = 5.0
    with pytest.raises(ValueError):
        h.symbol[1] = 5.0
    assert np.array_equal(h.gamma, before) and np.array_equal(h.gamma, h.gamma.T)


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_matrix_reads_only_the_analytic_part(n, rng):
    """For analytic h, (u conj(h))_j = sum_{k>=0} u_{j+k} conj(h_k), j >= 0,
    reads no negative mode of u: u and P_+ u have one matrix, bit for
    bit, and building it warns of nothing."""
    grid = GridSpec.with_padding(n)
    u = TorusField(grid, rng.standard_normal(grid.n_coeff) + 1j * rng.standard_normal(grid.n_coeff))
    assert np.all(u.coeff[:n] != 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, h_plus = build_hankel(u), build_hankel(project_plus(u))
    assert np.array_equal(h.symbol, h_plus.symbol)
    assert np.array_equal(h.gamma, h_plus.gamma)


@pytest.mark.parametrize("symbol", [[1.0, 0.0], [1.0, 0.0, 1.0], [[1.0]]])
def test_truncation_rejects_a_symbol_past_the_band(symbol):
    """No value past w_N reaches the truncation: a band that is not 1-D
    is refused, and the tail past w_N is built as zeros that cannot be
    written."""
    band = np.array(symbol)
    if band.ndim != 1:
        with pytest.raises(ValueError):
            HankelTruncation(band)
        return
    h = HankelTruncation(band)
    assert np.array_equal(h.symbol[: band.size], band)
    assert not np.any(h.symbol[band.size :])
    with pytest.raises(ValueError):
        h.symbol[band.size :] = 1.0


def test_truncation_builds_its_zero_tail():
    """HankelTruncation takes the band w_0 .. w_N and holds w_0 .. w_N,
    0 .. 0 as a read-only copy; an empty or 2-D band is no band."""
    band = np.array([0.5, 1.0 + 2.0j, -3.0])
    h = HankelTruncation(band)
    band[0] = 9.0
    assert np.array_equal(h.symbol, [0.5, 1.0 + 2.0j, -3.0, 0.0, 0.0])
    assert h.symbol.dtype == np.complex128 and h.size == 3
    for bad in ([], [[0.5, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValueError):
            HankelTruncation(np.array(bad))


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

    @pytest.mark.parametrize("amplitude", [1e-170, 1.0, 1e170])
    def test_spectrum_scales_with_the_amplitude(self, amplitude, rng):
        """At 1e-170 gamma gamma^H underflows and at 1e170 it overflows;
        both decompositions run on gamma scaled by a power of two, so the
        singular values are amplitude times those at 1 and the comparison
        runs without a warning (warnings are errors here)."""
        w = random_analytic_field(GridSpec.with_padding(8), rng)
        unit = spectral_summary(build_hankel(w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = spectral_summary(build_hankel(amplitude * w))
        want = amplitude * unit.singular_values
        assert np.all(np.abs(s.singular_values - want) <= 1e-12 * want)
        assert s.trace_norm == pytest.approx(amplitude * unit.trace_norm, rel=1e-12)

    @pytest.mark.parametrize("amplitude", [1e-170, 1.0])
    def test_cross_check_runs_at_a_tiny_amplitude(self, amplitude, rng, monkeypatch):
        """An eigensolver off by a relative 1e-6 fails the cross-check at
        1e-170 as it does at 1."""
        w = random_analytic_field(GridSpec.with_padding(8), rng)
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) * (1.0 + 1e-6))
        with pytest.raises(EigensolverError, match="disagree"):
            spectral_summary(build_hankel(amplitude * w))


def _symbol(kind, n, rng):
    grid = GridSpec.with_padding(n)
    if kind == "random":
        return random_analytic_field(grid, rng)
    if kind == "top_mode":
        return TorusField.from_modes(grid, {n: 0.8 - 0.6j})
    return TorusField.zeros(grid)


@pytest.mark.parametrize("kind", ["random", "top_mode", "zero"])
@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_gram_eigenvalues_match_the_matrix_product(n, kind, rng):
    """The diagonal-sum Gram matrix has the spectrum of G G^H."""
    h = build_hankel(_symbol(kind, n, rng))
    g = np.array(h.gamma)
    want = np.sort(np.linalg.eigvalsh(g @ g.conj().T))[::-1]
    got = spectral_summary(h).hw2_eigenvalues
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * max(want[0], 0.0))


def test_hankel_memory_stays_below_one_dense_copy(rng):
    """At N = 256 building the matrix holds only the 2N+1 symbol values,
    and a spectral summary holds one (N+1)^2 buffer at a time."""
    n = 256
    unit = (n + 1) ** 2 * 16
    w = random_analytic_field(GridSpec.with_padding(n), rng)
    spectral_summary(build_hankel(TorusField.from_modes(GRID2, {1: 1.0})))  # warm-up
    tracemalloc.start()
    try:
        h = build_hankel(w)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        spectral_summary(h)
        summary_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak <= 0.1 * unit
    assert summary_peak <= 2.0 * unit


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
