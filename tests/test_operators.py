import numpy as np
import pytest

from halfwave import (
    GridSpec,
    TorusField,
    conjugate,
    cubic_term,
    inner,
    invert_d0,
    product,
    project_minus,
    project_plus,
    reflect,
    triple_product,
)
from halfwave.operators import from_grid_values, to_grid_values

from conftest import random_field


def brute_force_cubic(a, b, c):
    """O(N^2) convolution-sum oracle for a * conj(b) * c on the band."""
    n = a.grid.max_mode
    full = np.convolve(np.convolve(a.coeff, c.coeff), np.conj(b.coeff)[::-1])
    return full[2 * n: 4 * n + 1]


class TestProjections:
    def test_plus_keeps_analytic_mode(self, grid16):
        f = TorusField.from_modes(grid16, {1: 1.0})
        assert project_plus(f) == f

    def test_plus_kills_negative_mode(self, grid16):
        f = TorusField.from_modes(grid16, {-1: 1.0})
        assert project_plus(f) == TorusField.zeros(grid16)

    def test_zero_mode_belongs_to_plus(self, grid16):
        f = TorusField.from_modes(grid16, {0: 1.0})
        assert project_minus(f) == TorusField.zeros(grid16)
        assert project_plus(f) == f

    def test_minus_keeps_negative_mode(self, grid16):
        f = TorusField.from_modes(grid16, {-2: 1.0})
        assert project_minus(f) == f

    def test_complementary(self, grid16, rng):
        f = random_field(grid16, rng)
        assert project_plus(f) + project_minus(f) == f
        assert project_minus(project_plus(f)) == TorusField.zeros(grid16)
        assert project_plus(project_plus(f)) == project_plus(f)

    def test_orthogonality(self, grid16, rng):
        f = random_field(grid16, rng)
        assert inner(project_plus(f), project_minus(f)) == 0


class TestMultipliers:
    def test_inverse_derivative(self, grid16):
        f = TorusField.from_modes(grid16, {3: 1.0})
        out = invert_d0(f)
        assert out.mode(3) == pytest.approx(1.0 / 3.0)

    def test_inverse_derivative_kills_mean(self, grid16):
        f = TorusField.from_modes(grid16, {0: 1.0})
        assert invert_d0(f) == TorusField.zeros(grid16)


class TestCubicTerm:
    def test_single_mode(self, grid16):
        eps = 0.3
        f = TorusField.from_modes(grid16, {1: eps})
        out = cubic_term(f, f, f)
        assert out.mode(1) == pytest.approx(eps**3)
        others = np.delete(out.coeff, 1 + grid16.max_mode)
        assert np.max(np.abs(others)) <= 1e-15

    def test_two_mode_hand_example(self, grid16):
        f = TorusField.from_modes(grid16, {0: 1.0, 1: 1.0})
        out = cubic_term(f, f, f)
        assert out.mode(0) == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_convolution_oracle(self, grid16, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_field(grid16, rng, decay=0.5) for _ in range(3))
        got = cubic_term(a, b, c).coeff
        want = brute_force_cubic(a, b, c)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_sesquilinearity(self, grid16, rng):
        a, b, c, d = (random_field(grid16, rng) for _ in range(4))
        lam = 0.7 - 0.2j
        left = cubic_term(a + lam * d, b, c)
        right = TorusField(grid16, cubic_term(a, b, c).coeff + lam * cubic_term(d, b, c).coeff)
        assert np.allclose(left.coeff, right.coeff, atol=1e-12)
        # conjugate-linear in the middle slot
        left = cubic_term(a, lam * b, c)
        right = TorusField(grid16, np.conj(lam) * cubic_term(a, b, c).coeff)
        assert np.allclose(left.coeff, right.coeff, atol=1e-12)

    def test_grid_mismatch(self):
        f = TorusField.zeros(GridSpec.with_padding(4))
        g = TorusField.zeros(GridSpec.with_padding(5))
        with pytest.raises(ValueError):
            cubic_term(f, g, f)


class TestProducts:
    def test_product_two_modes(self, grid16):
        f = TorusField.from_modes(grid16, {1: 2.0})
        g = TorusField.from_modes(grid16, {-3: 0.5})
        assert product(f, g).mode(-2) == pytest.approx(1.0)

    def test_triple_product_exact(self, grid16, rng):
        a, b, c = (random_field(grid16, rng, support=5) for _ in range(3))
        got = triple_product(a, b, c).coeff
        full = np.convolve(np.convolve(a.coeff, b.coeff), c.coeff)
        n = grid16.max_mode
        want = full[2 * n: 4 * n + 1]
        assert np.allclose(got, want, atol=1e-13)


class TestConjugateReflect:
    def test_conjugate_coefficients(self, grid16):
        f = TorusField.from_modes(grid16, {2: 1 + 1j})
        assert conjugate(f).mode(-2) == 1 - 1j

    def test_reflect(self, grid16):
        f = TorusField.from_modes(grid16, {2: 1 + 1j})
        assert reflect(f).mode(-2) == 1 + 1j

    def test_grid_values_round_trip(self, grid16, rng):
        f = random_field(grid16, rng)
        back = from_grid_values(grid16, to_grid_values(f))
        assert np.allclose(back.coeff, f.coeff, atol=1e-13)
