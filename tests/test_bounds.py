import math

import mpmath
import numpy as np
import pytest
from closed_forms import mub_min_bound, pure_density, upsilon_newton

from design_uncertainty import (assign_povms, audit_state, bound_curves,
                                bound_prior, bound_prop1, bound_prop2,
                                builtin_design, landau_pollak_cap,
                                random_density, state_independent_bound)
from design_uncertainty.bounds import beta_range
from design_uncertainty.quantum import maximally_mixed
from design_uncertainty.upsilon import upsilon_nr1


def bound_prop1_nr(n, t, beta):
    """The one-Newton-step bound at one beta, read from bound_curves."""
    return float(bound_curves(n, t, beta, ()).bound_prop1_nr)


class TestBoundPrior:
    def test_min_entropy_octahedron_floor(self):
        assert bound_prior(6, 3, 1 / 36, math.inf) == pytest.approx(
            math.log(36) / 3, abs=1e-12)

    def test_finite_alpha_matches_known_form(self):
        # at beta = K^{1-t} the finite-alpha bound is (alpha(t-1))/(t(alpha-1)) ln K
        for alpha in (3, 5, 10):
            got = bound_prior(6, 3, 1 / 36, alpha)
            expected = alpha * 2 / (3 * (alpha - 1)) * math.log(6)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_trivial_at_one(self):
        for alpha in (3, 7, math.inf):
            assert bound_prior(6, 3, 1.0, alpha) == 0.0

    def test_alpha_below_t_rejected(self):
        with pytest.raises(ValueError):
            bound_prior(6, 3, 1 / 36, 2)

    @pytest.mark.parametrize("alpha", [1e308, 1.7e308])
    def test_huge_alpha_against_mpmath(self, alpha):
        # alpha ln beta_n and t (1 - alpha) each overflow a double here
        for beta in (1 / 36, 1 / 20, 1 / 18, 0.5, 1.0):
            with mpmath.workdps(50):
                a = mpmath.mpf(alpha)
                want = a * mpmath.log(mpmath.mpf(beta)) / (3 * (1 - a))
            assert abs(bound_prior(6, 3, beta, alpha) - want) \
                <= 1e-15 * abs(want)

    @pytest.mark.parametrize("beta_n, alpha", [
        (1e-9, 3.5),         # below the floor: 9.67 > ln 6 before the check
        (5.0, math.inf),     # above 1: a negative bound before the check
        (math.nan, math.inf)])
    def test_beta_outside_admissible_range_rejected(self, beta_n, alpha):
        with pytest.raises(ValueError, match="outside admissible"):
            bound_prior(6, 3, beta_n, alpha)


class TestBoundProp1:
    def test_saturation_values(self):
        assert bound_prop1(6, 3, 1 / 36) == pytest.approx(math.log(6), abs=1e-12)
        assert bound_prop1(12, 5, 12.0**-4) == pytest.approx(math.log(12),
                                                             abs=1e-12)

    @pytest.mark.parametrize("k, t, ratio", [(6, 3, 1.5), (12, 5, 1.25),
                                             (30, 5, 1.25)])
    def test_floor_ratio_over_prior(self, k, t, ratio):
        beta = float(k) ** (1 - t)
        got = bound_prop1(k, t, beta) / bound_prior(k, t, beta, math.inf)
        assert got == pytest.approx(ratio, abs=1e-9)

    def test_ordering_with_one_step(self):
        beta = 1 / 18
        prior = bound_prior(6, 3, beta, math.inf)
        nr = bound_prop1_nr(6, 3, beta)
        full = bound_prop1(6, 3, beta)
        assert prior < nr < full

    def test_one_step_gap_is_chi_identity(self):
        beta = 1 / 18
        gap = bound_prop1_nr(6, 3, beta) - bound_prior(6, 3, beta, math.inf)
        c = 1 - upsilon_nr1(6, 3, beta) / beta ** (1 / 3)
        assert gap == pytest.approx(-math.log(1 - c), abs=1e-12)
        assert gap >= c

    def test_icosidodecahedron_pure_curves_coincide(self):
        beta = beta_range(30, 2, 5)[1]
        p1, nr = bound_prop1(30, 5, beta), bound_prop1_nr(30, 5, beta)
        assert abs(p1 - nr) / p1 < 1e-3   # indistinguishable at plot scale


class TestBoundProp2:
    def test_saturated_for_all_alpha_at_floor(self):
        for alpha in (3, 4, 7, 50, math.inf):
            assert bound_prop2(6, 3, alpha, 1 / 36) == pytest.approx(
                math.log(6), abs=1e-12)

    def test_reduces_to_prior_at_alpha_t(self):
        for beta in (1 / 36, 1 / 24, 1 / 18):
            assert bound_prop2(6, 3, 3, beta) == pytest.approx(
                bound_prior(6, 3, beta, 3), abs=1e-12)
            assert bound_prop2(6, 3, 3, beta) == pytest.approx(
                -math.log(beta) / 2, abs=1e-12)

    def test_tends_to_prop1_at_large_alpha(self):
        beta = 1 / 18
        assert bound_prop2(6, 3, 1e8, beta) == pytest.approx(
            bound_prop1(6, 3, beta), abs=1e-6)
        assert bound_prop2(6, 3, math.inf, beta) == bound_prop1(6, 3, beta)

    def test_strictly_above_prior(self):
        assert bound_prop2(6, 3, 10, 1 / 18) > bound_prior(6, 3, 1 / 18, 10)

    def test_alpha_below_t_rejected(self):
        with pytest.raises(ValueError):
            bound_prop2(6, 3, 2, 1 / 18)


class TestStateIndependent:
    def test_octahedron_single(self):
        expected = -math.log(upsilon_newton(6, 3, 1 / 18).value)
        assert state_independent_bound(6, 2, 3, math.inf) == pytest.approx(
            expected, abs=1e-12)

    def test_mub_grouped_closed_form(self):
        expected = -math.log(0.5 + math.sqrt(1 / 12))
        assert state_independent_bound(2, 2, 3, math.inf) == pytest.approx(
            expected, abs=1e-12)

    def test_improvement_scale_octahedron(self):
        si = state_independent_bound(6, 2, 3, math.inf)
        prior = bound_prior(6, 3, 1 / 18, math.inf)
        assert 0.05 < si / prior - 1 < 0.09   # order 7 %

    def test_one_float_per_design_and_alpha(self):
        # cached: every steering result shares its right-hand side
        assert state_independent_bound(6, 2, 3, 5.0) \
            is state_independent_bound(6, 2, 3, 5.0)
        for _ in range(2):   # a failed call is not cached
            with pytest.raises(ValueError, match="alpha >= t"):
                state_independent_bound(6, 2, 3, 2.0)


class TestLandauPollak:
    def test_maximally_mixed_saturates(self, oct_single, oct_mub):
        for a in (oct_single, oct_mub):
            actual, cap = landau_pollak_cap(a, maximally_mixed(2), 3)
            assert actual == pytest.approx(1 / a.n_outcomes, abs=1e-12)
            assert cap == pytest.approx(1 / a.n_outcomes, abs=1e-10)

    def test_pure_state_octahedron(self, oct_single):
        actual, cap = landau_pollak_cap(oct_single,
                                        pure_density([1, 0]), 3)
        assert actual == pytest.approx(1 / 3, abs=1e-12)
        assert cap == pytest.approx(upsilon_newton(6, 3, 1 / 18).value,
                                    abs=1e-12)
        assert actual <= cap

    def test_mub_pure_z(self, oct_mub):
        actual, cap = landau_pollak_cap(oct_mub, pure_density([1, 0]), 3)
        assert actual == pytest.approx(2 / 3, abs=1e-12)
        assert cap == pytest.approx(upsilon_newton(2, 3, 0.5).value,
                                    abs=1e-12)
        assert actual <= cap

    def test_random_states_capped(self, oct_single, oct_mub, rng):
        for a in (oct_single, oct_mub):
            for _ in range(50):
                actual, cap = landau_pollak_cap(a, random_density(2, rng), 3)
                assert actual <= cap + 1e-10


class TestMubMinBound:
    def test_endpoints(self):
        assert mub_min_bound(0.5) == pytest.approx(math.log(2), abs=1e-14)
        assert mub_min_bound(1.0) == pytest.approx(
            math.log(2 * math.sqrt(3) / (math.sqrt(3) + 1)), abs=1e-14)
        assert mub_min_bound(1.0) == pytest.approx(0.23740, abs=1e-5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mub_min_bound(0.3)

    def test_equivalent_to_prop1_on_lambda_grid(self):
        for lam in np.linspace(0, 0.5, 50):
            purity = 1 - 2 * lam + 2 * lam**2
            assert abs(mub_min_bound(purity)
                       - bound_prop1(2, 3, purity / 2)) < 1e-12


class TestAuditState:
    def test_maximally_mixed_saturates(self, oct_single):
        report = audit_state(oct_single, maximally_mixed(2), [3, math.inf])
        assert report.saturated[0] and report.all_satisfied[0]
        assert report.actual[0, 1] == pytest.approx(math.log(6), abs=1e-12)
        assert report.bound_prop1[0] == pytest.approx(math.log(6), abs=1e-9)

    def test_pure_state_bound_ordering(self):
        single = assign_povms(builtin_design("icosahedron"), "single")
        report = audit_state(single, pure_density([1, 0]),
                             [5, 10, math.inf])
        assert (report.actual[0, 2] >= report.bound_prop1[0]
                >= report.bound_prop1_nr[0] >= report.bound_prior[0, 2])
        assert report.all_satisfied[0]

    def test_random_sweep_no_violations(self, oct_single, oct_mub, rng):
        for a in (oct_single, oct_mub):
            for _ in range(50):
                report = audit_state(a, random_density(2, rng),
                                     [3, 6, math.inf])
                assert report.all_satisfied[0] and report.jensen_ok[0]

    def test_s_substitution_valid_on_5_design(self, rng):
        single = assign_povms(builtin_design("icosahedron"), "single")
        for _ in range(25):
            report = audit_state(single, random_density(2, rng),
                                 [2, 4, math.inf], s=2)
            assert report.all_satisfied[0]

    def test_beta_m_reported_for_groups(self, oct_mub, rng):
        report = audit_state(oct_mub, random_density(2, rng), [math.inf])
        assert report.beta_m.shape == (1, 3)
        assert report.beta_n[0] == pytest.approx(float(np.mean(report.beta_m)),
                                                 abs=1e-12)
