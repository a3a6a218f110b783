import math

import mpmath
import numpy as np
import pytest
from closed_forms import upsilon_closed_t2, upsilon_closed_t3, upsilon_mp
from hypothesis import given, settings
from hypothesis import strategies as st

from design_uncertainty import upsilon, upsilon_array
from design_uncertainty.upsilon import (_check_queries, _nr1,
                                        admissible_range, upsilon_nr1)

GRID_CASES = [(2, 3), (6, 3), (12, 5), (30, 5)]


def bisection_root(n, t, beta, iters=200):
    """Independent oracle: plain bisection on [1/n, beta^{1/t}]."""
    c = (n - 1.0) ** (t - 1)

    def f(y):
        return c * (y**t - beta) + (1.0 - y) ** t

    lo, hi = 1.0 / n, beta ** (1.0 / t)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def beta_grid(n, t, points=100):
    lo, hi = admissible_range(n, t)
    return np.linspace(lo, hi, points)


class TestNewtonSolver:
    def test_floor_root(self):
        assert abs(upsilon(6, 3, 1 / 36).value - 1 / 6) < 1e-12

    def test_ceiling_root(self):
        assert upsilon(6, 3, 1.0).value == 1.0

    def test_against_bisection(self):
        res = upsilon(6, 3, 1 / 18)
        assert abs(res.value - bisection_root(6, 3, 1 / 18)) < 1e-12
        assert res.residual <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            upsilon(6, 3, 1 / 40)
        with pytest.raises(ValueError):
            upsilon(6, 3, 1.01)

    # frac bounded away from 0: at the exact floor the root is degenerate
    # (double), where bisection itself is only ~1e-9 accurate; that endpoint
    # is covered by test_floor_root.
    @given(st.integers(2, 64), st.integers(2, 5), st.floats(1e-6, 1))
    @settings(max_examples=200, deadline=None)
    def test_random_queries_match_oracle(self, n, t, frac):
        lo, hi = admissible_range(n, t)
        beta = lo + frac * (hi - lo)
        res = upsilon(n, t, beta)
        assert 1.0 / n - 1e-12 <= res.value <= beta ** (1.0 / t) + 1e-12
        assert abs(res.value - bisection_root(n, t, beta)) < 1e-12

    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_bracket_on_grid(self, n, t):
        betas = beta_grid(n, t)
        for beta, y in zip(betas, upsilon_array(n, t, betas).value):
            assert 1.0 / n - 1e-12 <= y <= beta ** (1.0 / t) + 1e-12


class TestMpmathOracle:
    # the floor point is left out: there the root is double and the float
    # floor may lie below the exact one, where no root exists
    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_grid_to_40_digits(self, n, t):
        betas = beta_grid(n, t)[1::3]
        ys = upsilon_array(n, t, betas).value
        with mpmath.workdps(40):
            for beta, y in zip(betas, ys):
                root = upsilon_mp(n, t, beta)
                assert abs(mpmath.mpf(y) - root) <= 1e-15 * root

    # just above the floor the root is double, so the rounding of beta
    # moves it by ~1e-8.  This oracle takes the exact floor n^{1-t}, not
    # the float one upsilon_array solves with, which moves it by ~1e-9
    def test_near_floor_against_bisection(self):
        n, t = 6, 3
        beta = float(n) ** (1 - t) * (1.0 + 1e-14)
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            c = mpmath.mpf(n - 1) ** (t - 1)
            lo, hi = mpmath.mpf(1) / n, b ** (mpmath.mpf(1) / t)
            for _ in range(200):
                mid = (lo + hi) / 2
                if c * (mid**t - b) + (1 - mid) ** t > 0:
                    hi = mid
                else:
                    lo = mid
            root = (lo + hi) / 2
            assert abs(mpmath.mpf(upsilon(n, t, beta).value) - root) \
                <= 1e-8 * root


class TestClosedForms:
    def test_t2_floor_and_ceiling(self):
        assert upsilon_closed_t2(4, 0.25) == pytest.approx(0.25, abs=1e-15)
        assert upsilon_closed_t2(4, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_t2_matches_newton(self):
        for n in (2, 4, 6, 17):
            betas = beta_grid(n, 2)
            for beta, y in zip(betas, upsilon_array(n, 2, betas).value):
                assert abs(upsilon_closed_t2(n, beta) - y) < 1e-12

    def test_t3_n2_special_values(self):
        assert upsilon_closed_t3(2, 0.25) == pytest.approx(0.5, abs=1e-15)
        assert upsilon_closed_t3(2, 1.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            upsilon_closed_t3(2, 0.2)

    def test_t3_cardano_branch_floor(self):
        assert abs(upsilon_closed_t3(6, 1 / 36) - 1 / 6) < 1e-12

    def test_t3_matches_newton(self):
        for n in (2, 3, 6, 30, 64):
            betas = beta_grid(n, 3, points=400)
            for beta, y in zip(betas, upsilon_array(n, 3, betas).value):
                assert abs(upsilon_closed_t3(n, beta) - y) < 1e-10


class TestOneStepBound:
    def test_dominance(self):
        u = upsilon(6, 3, 1 / 18).value
        nr = upsilon_nr1(6, 3, 1 / 18)
        assert u <= nr <= (1 / 18) ** (1 / 3)
        assert nr - u < 0.01

    def test_n2_above_exact_root(self):
        assert upsilon_nr1(2, 3, 0.25) >= 0.5

    def test_beta_to_one_limit(self):
        assert upsilon_nr1(6, 3, 1 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_dominance_chain_on_grid(self, n, t):
        betas = beta_grid(n, t)[1:-1]
        for beta, y in zip(betas, upsilon_array(n, t, betas).value):
            nr = upsilon_nr1(n, t, beta)
            assert y <= nr + 1e-14 <= beta ** (1.0 / t) + 1e-12

    # a 0-d beta once became a numpy scalar, whose power differs from the
    # array kernel's in the last bit at about 6 % of these points
    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_scalar_view_equals_batch(self, n, t):
        betas = beta_grid(n, t, points=200)
        batch = _nr1(n, t, _check_queries(n, t, betas))
        for beta, y in zip(betas, batch):
            assert upsilon_nr1(n, t, beta) == y, beta
        assert type(_check_queries(n, t, betas[1])) is np.ndarray


def chi(k, t, beta):
    """Relative size of the one-step correction: the single-POVM
    improvement over the baseline min-entropy bound is -ln(1 - chi)."""
    return 1.0 - upsilon_nr1(k, t, beta) / beta ** (1.0 / t)


class TestChi:
    def test_identity_with_one_step_bound(self):
        beta = 1 / 18
        u = upsilon_nr1(6, 3, beta)
        c = chi(6, 3, beta)
        lhs = -math.log(u) + math.log(beta) / 3
        assert abs(lhs - (-math.log(1 - c))) < 1e-12
        assert -math.log(1 - c) >= c

    def test_vanishes_at_one(self):
        assert chi(6, 3, 1 - 1e-12) < 1e-8

    def test_pure_state_improvement_scale(self):
        # icosahedron single POVM, pure-state beta: improvement of order 1 %
        beta = 12.0**-4 * 32 / 6
        assert 0.005 < chi(12, 5, beta) < 0.02


class TestShapeProperties:
    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_monotone_increasing(self, n, t):
        ys = upsilon_array(n, t, beta_grid(n, t)).value
        assert np.all(np.diff(ys) > 0)

    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_concave(self, n, t):
        ys = upsilon_array(n, t, beta_grid(n, t)).value
        second = np.diff(ys, 2)
        assert np.all(second <= 1e-9)

    def test_repeated_newton_decreases_from_start(self):
        n, t, beta = 12, 5, 3e-4
        c = (n - 1.0) ** (t - 1)
        root = bisection_root(n, t, beta)
        y = beta ** (1.0 / t)
        for _ in range(30):
            f = c * (y**t - beta) + (1.0 - y) ** t
            fp = t * (c * y ** (t - 1) - (1.0 - y) ** (t - 1))
            y_next = y - f / fp
            assert y_next <= y + 1e-15
            assert y_next >= root - 1e-12
            y = y_next
