import numpy as np
import pytest

from halfwave import (
    F,
    H0,
    GridSpec,
    R,
    RTILDE,
    TorusField,
    chi_flow,
    coefficient_identity_max_error,
    enumerate_resonances,
    functional_value,
    inner,
    normal_form_flow,
    poisson_bracket,
    project_plus,
    quartic_sum,
    quartic_sum_field,
    resonances_from_cases,
    taylor_residual,
    vector_field,
)
from halfwave.norms import besov_norm
from halfwave.normalform import (
    ALL_NON_NEGATIVE,
    ALL_NON_POSITIVE,
    FLOW_SMALLNESS,
    PAIR_12_34,
    PAIR_14_32,
    _case_masks,
    _coefficients,
    _phase,
    _resonant_rows,
    _row_mismatch,
)

from conftest import random_field


#: (tag, support) cases on the N = 32 grid: support 8 is a quarter of the
#: band (id: the tag), support 32 the whole band (id: "<tag>-full")
QUARTIC_SUPPORTS = [pytest.param(tag, support, id=tag if support == 8 else f"{tag}-full")
                    for support in (8, 32) for tag in (R, RTILDE, F)]


def small_field(grid, rng, besov_size=0.45):
    u = random_field(grid, rng, support=grid.max_mode // 4)
    return (besov_size / besov_norm(u)) * u


class TestResonanceCombinatorics:
    def test_phase_values(self):
        quads = np.array([(2, 1, 0, 1), (1, 2, -3, -4), (3, 3, -5, -5)])
        assert _phase(*quads.T).tolist() == [0, -2, 0]

    def test_classification(self):
        quads = np.array([(2, 1, 0, 1), (3, 3, -5, -5), (1, 2, -3, -4),
                          (-1, -2, 0, -3), (2, -1, -1, 2)])
        masks = _case_masks(quads)
        cases = [{tag for tag, mask in masks.items() if mask[i]} for i in range(len(quads))]
        assert cases == [{ALL_NON_NEGATIVE}, {PAIR_12_34}, set(),
                         {ALL_NON_POSITIVE}, {PAIR_14_32}]

    def test_zero_phase_with_zero_sum_implies_a_case(self):
        # no zero-sum quadruple with zero phase escapes the four cases
        assert np.any(list(_case_masks(_resonant_rows(12)).values()), axis=0).all()

    def test_f_coeff_values(self):
        quads = np.array([(1, 2, -3, -4), (2, 1, 0, 1)])
        assert _coefficients(F, *quads.T) == pytest.approx([-1j / 8, 0])

    def test_f_coeff_symmetry_makes_generator_real(self):
        # the phase flips sign under (k1,k2,k3,k4) -> (k2,k1,k4,k3) and the
        # coefficient is purely imaginary, so f(q) = conj(f(swap)): exactly
        # the relation that makes the assembled quartic real-valued
        k1, k2, k3 = np.random.default_rng(4).integers(-9, 10, size=(50, 3)).T
        k4 = k1 - k2 + k3
        f = _coefficients(F, k1, k2, k3, k4)
        assert f == pytest.approx(np.conj(_coefficients(F, k2, k1, k4, k3)))
        assert np.all(f.real == 0.0)

    def test_enumeration_matches_cases_exactly(self):
        listed = enumerate_resonances(14)
        assert listed == sorted(set(listed))  # lexicographic, no repeats
        assert all(type(q) is tuple and len(q) == 4 for q in listed)
        assert set(listed) == resonances_from_cases(14)

    def test_enumeration_contains_hand_examples(self):
        listed = set(enumerate_resonances(1))
        assert (1, 1, 0, 0) in listed
        assert (0, 0, 1, 1) in listed
        assert (-1, -1, 0, 0) in listed
        assert (0, 0, -1, -1) in listed

    def test_enumeration_closed_under_outer_swap(self):
        listed = set(enumerate_resonances(6))
        assert {(k3, k2, k1, k4) for (k1, k2, k3, k4) in listed} == listed

    def test_enumeration_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_resonances(200)

    def test_coefficient_identity(self):
        assert coefficient_identity_max_error(20) <= 1e-12


@pytest.fixture
def grid32():
    return GridSpec.with_padding(32)


class TestFunctionals:
    def test_quadratic_energy(self, grid32):
        u = TorusField.from_modes(grid32, {2: 1.0, -3: 2.0})
        assert functional_value(H0, u) == pytest.approx(0.5 * (2.0 + 3.0 * 4.0))

    def test_quartic_on_single_mode(self, grid32):
        eps = 0.3
        u = TorusField.from_modes(grid32, {1: eps})
        assert functional_value(R, u) == pytest.approx(-0.25 * eps**4)
        assert functional_value(RTILDE, u) == pytest.approx(-0.25 * eps**4)

    def test_resonant_quartic_hand_value(self, grid32):
        eps = 0.2
        u = TorusField.from_modes(grid32, {0: eps, 1: eps})
        assert functional_value(RTILDE, u) == pytest.approx(-0.5 * eps**4, rel=1e-12)

    def test_generator_vanishes_on_analytic_fields(self, grid32, rng):
        u = project_plus(random_field(grid32, rng, support=8))
        assert quartic_sum(F, u) == pytest.approx(0.0, abs=1e-15)
        assert functional_value(F, u) == pytest.approx(0.0, abs=1e-15)

    def test_generator_is_real(self, grid32, rng):
        """The raw complex quadruple sum has negligible imaginary part,
        thanks to the conjugation symmetry of the coefficients."""
        for _ in range(3):
            u = random_field(grid32, rng, support=6)
            n = u.grid.max_mode
            total = 0.0 + 0.0j
            modes = range(-6, 7)
            for k1 in modes:
                for k2 in modes:
                    for k3 in modes:
                        k4 = k1 - k2 + k3
                        if abs(k4) > n:
                            continue
                        ph = abs(k1) - abs(k2) + abs(k3) - abs(k4)
                        if ph == 0:
                            continue
                        total += (1j / (4 * ph)) * (
                            u.mode(k1) * np.conj(u.mode(k2))
                            * u.mode(k3) * np.conj(u.mode(k4))
                        )
            assert abs(total.imag) <= 1e-12
            assert total.real == pytest.approx(quartic_sum(F, u), abs=1e-12)

    @pytest.mark.parametrize("tag, support", QUARTIC_SUPPORTS)
    def test_direct_equals_closed(self, tag, support, grid32, rng):
        u = random_field(grid32, rng, support=support)
        d = quartic_sum(tag, u)
        c = functional_value(tag, u)
        assert d == pytest.approx(c, abs=1e-10 * max(1.0, abs(c)))

    def test_direct_sum_size_guard(self):
        big = TorusField.zeros(GridSpec.with_padding(64))
        with pytest.raises(ValueError):
            quartic_sum(R, big)
        with pytest.raises(ValueError):
            quartic_sum_field(R, big)

    def test_unknown_tag_rejected(self, grid32):
        with pytest.raises(ValueError):
            functional_value("nope", TorusField.zeros(grid32))


class TestVectorFields:
    def test_h0_field_is_linear_multiplier(self, grid32):
        u = TorusField.from_modes(grid32, {2: 1.0})
        out = vector_field(H0, u)
        assert out.mode(2) == pytest.approx(-2j)

    @pytest.mark.parametrize("tag, support", QUARTIC_SUPPORTS)
    def test_direct_equals_closed(self, tag, support, grid32, rng):
        u = random_field(grid32, rng, support=support)
        d = quartic_sum_field(tag, u)
        c = vector_field(tag, u)
        scale = max(1.0, float(np.max(np.abs(d.coeff))))
        assert np.max(np.abs(d.coeff - c.coeff)) <= 1e-10 * scale

    @pytest.mark.parametrize("tag", [R, RTILDE, F])
    def test_cubic_homogeneity(self, tag, grid32, rng):
        u = random_field(grid32, rng, support=8)
        lam = 1.7
        a = vector_field(tag, lam * u)
        b = vector_field(tag, u)
        assert np.allclose(a.coeff, lam**3 * b.coeff, atol=1e-12)

    def test_generator_field_plus_part_vanishes_on_analytic(self, grid32, rng):
        u = project_plus(random_field(grid32, rng, support=8))
        x = vector_field(F, u)
        assert np.max(np.abs(project_plus(x).coeff)) <= 1e-14
        d = quartic_sum_field(F, u)
        assert np.max(np.abs(d.coeff - x.coeff)) <= 1e-13

    @pytest.mark.parametrize("tag", [R, RTILDE, F])
    def test_gradient_consistency(self, tag, grid32, rng):
        """(G(u + hv) - G(u - hv)) / 2h -> Im (v | X_G(u)) at rate h^2."""
        u = random_field(grid32, rng, support=8)
        v = random_field(grid32, rng, support=8)
        x = vector_field(tag, u)
        target = float(np.imag(inner(v, x)))
        errors = []
        for h in (2e-4, 1e-4):
            plus = functional_value(tag, u + h * v)
            minus = functional_value(tag, u - h * v)
            errors.append(abs((plus - minus) / (2 * h) - target))
        scale = max(1.0, abs(target))
        assert errors[0] <= 1e-5 * scale
        if errors[1] > 1e-12 * scale:
            assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)


class TestPoissonBracket:
    def test_antisymmetry_diagonal(self, grid32, rng):
        u = random_field(grid32, rng, support=8)
        assert poisson_bracket(H0, H0, u) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("path, n, support", [
        pytest.param("closed_form", 32, 8, id="closed_form"),
        pytest.param("direct_sum", 32, 8, id="direct_sum"),
        pytest.param("closed_form", 128, 128, id="closed_form-n128-full"),
    ])
    def test_normal_form_identity(self, path, n, support, rng):
        """{F, H0} + R = Rtilde on band-limited fields, through the closed
        forms or through the oracle quadruple sums (N <= 32 only)."""
        grid = GridSpec.with_padding(n)
        for _ in range(5):
            u = random_field(grid, rng, support=support)
            if path == "closed_form":
                lhs = poisson_bracket(F, H0, u) + functional_value(R, u)
                rhs = functional_value(RTILDE, u)
            else:
                bracket = float(np.imag(inner(quartic_sum_field(F, u), vector_field(H0, u))))
                lhs = bracket + quartic_sum(R, u)
                rhs = quartic_sum(RTILDE, u)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_bracket_vanishes_on_analytic(self, grid32, rng):
        u = project_plus(random_field(grid32, rng, support=8))
        assert poisson_bracket(F, H0, u) == pytest.approx(0.0, abs=1e-13)


class TestCanonicalFlow:
    def test_zero_coupling_is_identity(self, grid32, rng):
        u = small_field(grid32, rng)
        assert chi_flow(u, 0.0) == u

    def test_invertibility(self, grid32, rng):
        u = small_field(grid32, rng)
        back = normal_form_flow(chi_flow(u, 0.1), 0.1, -1.0)
        assert np.max(np.abs(back.coeff - u.coeff)) <= 1e-10

    def test_flow_composition(self, grid32, rng):
        u = small_field(grid32, rng)
        a = normal_form_flow(normal_form_flow(u, 0.15, 0.6), 0.15, -0.25)
        b = normal_form_flow(u, 0.15, 0.35)
        assert np.max(np.abs(a.coeff - b.coeff)) <= 1e-10

    def test_displacement_scales_quadratically(self, grid32, rng):
        u = small_field(grid32, rng)
        eps_values = (0.2, 0.1, 0.05, 0.025)
        disp = [besov_norm(chi_flow(u, e) - u) for e in eps_values]
        slope = np.polyfit(np.log(eps_values), np.log(disp), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_smallness_threshold_enforced(self, grid32, rng):
        u = random_field(grid32, rng, support=8)
        u = (2.0 / besov_norm(u)) * u
        with pytest.raises(ValueError):
            chi_flow(u, 0.2)

    def test_single_mode_is_fixed_point(self, grid32):
        u = TorusField.from_modes(grid32, {3: 0.4})
        moved = chi_flow(u, 0.1)
        assert np.max(np.abs(moved.coeff - u.coeff)) <= 1e-14
        assert taylor_residual(u, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_taylor_residual_zero_at_zero_coupling(self, grid32, rng):
        u = small_field(grid32, rng)
        assert taylor_residual(u, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_taylor_residual_fourth_order(self, grid32, rng):
        u = small_field(grid32, rng, besov_size=0.4)
        eps_values = (0.2, 0.1, 0.05, 0.025)
        residuals = [taylor_residual(u, e) for e in eps_values]
        slope = np.polyfit(np.log(eps_values), np.log(residuals), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)


@pytest.mark.parametrize("n", [16, 32])
def test_stacked_taylor_residual_equals_single(n, rng):
    """One stacked flow gives each eps the residual of its own flow, bit
    for bit; eps = 0 leaves u in place; an eps over the smallness
    threshold is named in the error."""
    u = small_field(GridSpec.with_padding(n), rng, besov_size=0.4)
    eps_values = (0.2, 0.1, 0.05, 0.025, 0.0)
    stacked = taylor_residual(u, eps_values)
    assert stacked.shape == (len(eps_values),)
    for eps, residual in zip(eps_values, stacked):
        assert residual == taylor_residual(u, eps)
    assert stacked[-1] == 0.0
    too_big = 2.0 * FLOW_SMALLNESS / besov_norm(u)
    with pytest.raises(ValueError, match=f"eps = {too_big}"):
        taylor_residual(u, (0.1, too_big, 0.05))


@pytest.mark.parametrize("max_abs", [1, 3, 30])
def test_row_mismatch_counts_the_symmetric_difference(max_abs):
    """The integer-code count equals the size of the symmetric difference
    of the row sets, with repeated rows and entries at the code's edges."""
    rng = np.random.default_rng(max_abs)
    for _ in range(20):
        pool = rng.integers(-max_abs, max_abs + 1, size=(12, 4))
        pool[0] = max_abs
        pool[1] = -max_abs
        pool[2] = (max_abs, -max_abs, -max_abs, max_abs)
        a = pool[rng.integers(0, len(pool), size=15)]
        b = pool[rng.integers(0, len(pool), size=9)]
        expected = len(set(map(tuple, a)) ^ set(map(tuple, b)))
        assert _row_mismatch(a, b, max_abs) == expected
    assert _row_mismatch(pool, pool[::-1], max_abs) == 0
