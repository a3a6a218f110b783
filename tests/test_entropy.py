import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from design_uncertainty import (audit_state, conditional_renyi_arimoto,
                                renyi_entropies)
from design_uncertainty.entropy import renyi_entropy

ALPHA_GRID = [0.5, 1, 2, 3, 5, 10, math.inf]
# on 6 outcomes sum p^alpha underflows from about alpha = 1000 on
LARGE_ALPHAS = [100, 500, 1000, 5000, 1e5, 1e6]


def random_distribution(rng, n):
    return rng.dirichlet(np.ones(n))


class TestRenyiEntropy:
    def test_uniform_all_alphas(self):
        p = np.full(6, 1 / 6)
        for alpha in ALPHA_GRID:
            assert renyi_entropy(p, alpha) == pytest.approx(math.log(6),
                                                            abs=1e-12)

    def test_deterministic(self):
        assert renyi_entropy([1.0, 0.0], 2) == pytest.approx(0.0, abs=1e-14)

    def test_octahedron_pure_min_entropy(self):
        p = [1 / 3, 0, 1 / 6, 1 / 6, 1 / 6, 1 / 6]
        assert renyi_entropies(p, math.inf) == pytest.approx(math.log(3),
                                                             abs=1e-14)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.5], 0)
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.5], -1)

    @pytest.mark.parametrize("p", [[math.nan, 0.5], [0.5, math.nan],
                                   [math.inf, 0.0], [1.0, -math.inf],
                                   [0.3, 0.3], [0.6, 0.6], [0.5, -0.5]])
    def test_rejects_what_no_distribution_is(self, p):
        for alpha in (1, 2, math.inf):
            with pytest.raises(ValueError):
                renyi_entropy(p, alpha)

    def test_rejects_nan_alpha(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.5], math.nan)
        with pytest.raises(ValueError):
            conditional_renyi_arimoto(np.eye(2) / 2, math.nan)

    def test_sum_tolerance(self):
        # the 1e-10 tolerance of conditional_renyi_arimoto
        assert renyi_entropy([0.5, 0.5 + 5e-11], 2) == pytest.approx(
            math.log(2), abs=1e-9)
        with pytest.raises(ValueError, match="sum to 1"):
            renyi_entropy([0.5, 0.5 + 5e-10], 2)

    def test_batch_rejects_one_bad_row(self):
        p = np.array([[0.5, 0.5], [0.3, 0.3]])
        with pytest.raises(ValueError, match="sum to 1"):
            renyi_entropies(p, 2)

    @pytest.mark.parametrize("alpha", [0.5, 1, 2, math.inf])
    def test_empty_stack(self, alpha):
        assert renyi_entropies(np.zeros((0, 3, 4)), alpha).shape == (0, 3)

    def test_monotone_in_alpha(self, rng):
        for _ in range(50):
            p = random_distribution(rng, 8)
            vals = [renyi_entropy(p, a) for a in ALPHA_GRID]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_shannon_limit(self, rng):
        for _ in range(20):
            p = random_distribution(rng, 6)
            h = renyi_entropies(p, 1)
            assert abs(renyi_entropy(p, 1 + 1e-6) - h) < 1e-4
            assert abs(renyi_entropy(p, 1 - 1e-6) - h) < 1e-4

    @given(st.lists(st.floats(1e-6, 1), min_size=2, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_interpolation_inequality(self, weights):
        # R_alpha >= ((alpha-t)/(alpha-1)) R_inf + ((t-1)/(alpha-1)) R_t
        p = np.array(weights) / sum(weights)
        for alpha, t in [(3, 2), (5, 3)]:
            lhs = renyi_entropy(p, alpha)
            rhs = ((alpha - t) / (alpha - 1)) * renyi_entropy(p, math.inf) \
                + ((t - 1) / (alpha - 1)) * renyi_entropy(p, t)
            assert lhs >= rhs - 1e-10
        # alpha = inf limit form: R_inf >= R_inf
        assert renyi_entropy(p, math.inf) >= renyi_entropy(p, math.inf) - 1e-12


class TestConditionalArimoto:
    def test_product_joint_equals_marginal(self, rng):
        p = random_distribution(rng, 5)
        q = random_distribution(rng, 4)
        joint = np.outer(p, q)
        for alpha in (0.5, 1, 2, 3, math.inf):
            assert conditional_renyi_arimoto(joint, alpha) == pytest.approx(
                renyi_entropy(p, alpha), abs=1e-12)

    def test_perfect_correlation_zero(self):
        joint = np.diag([0.2, 0.3, 0.5])
        for alpha in (0.5, 1, 2, math.inf):
            assert conditional_renyi_arimoto(joint, alpha) == pytest.approx(
                0.0, abs=1e-12)

    def test_conditioning_reduces_entropy(self, rng):
        for _ in range(100):
            joint = rng.dirichlet(np.ones(20)).reshape(5, 4)
            marg = joint.sum(axis=1)
            for alpha in (2, 3, 5, math.inf):
                assert conditional_renyi_arimoto(joint, alpha) \
                    <= renyi_entropy(marg, alpha) + 1e-10

    def test_zero_weight_column_ignored(self):
        joint = np.array([[0.25, 0.0], [0.75, 0.0]])
        assert conditional_renyi_arimoto(joint, 2) == pytest.approx(
            renyi_entropy([0.25, 0.75], 2), abs=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            conditional_renyi_arimoto(np.eye(2) / 2, 0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            conditional_renyi_arimoto(np.eye(2), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25])
    def test_non_distribution_rejected(self, bad):
        joint = np.array([[0.5, 0.25], [bad, 0.5]])
        with pytest.raises(ValueError):
            conditional_renyi_arimoto(joint, 2)


class TestLargeAlpha:
    """Where sum p^alpha underflows, the kernel takes the column maximum
    out first."""

    @pytest.mark.parametrize("alpha", [500, 5000, 1e6, 1e308, 1.7e308])
    def test_uniform(self, alpha):
        assert renyi_entropies(np.full(6, 1 / 6), alpha) == pytest.approx(
            math.log(6), rel=1e-13, abs=0)

    def test_against_mpmath(self, rng):
        for _ in range(20):
            p = random_distribution(rng, 6)
            with mpmath.workdps(50):
                for alpha in LARGE_ALPHAS:
                    want = mpmath.log(mpmath.fsum(mpmath.mpf(x) ** alpha
                                                  for x in p)) / (1 - alpha)
                    got = renyi_entropy(p, alpha)
                    assert abs(got - want) <= 1e-13 * abs(want), alpha

    def test_conditional_against_mpmath(self, rng):
        for _ in range(20):
            joint = random_distribution(rng, 12).reshape(3, 4)
            with mpmath.workdps(50):
                for alpha in LARGE_ALPHAS:
                    a = mpmath.mpf(alpha)
                    norms = mpmath.fsum(
                        mpmath.fsum(mpmath.mpf(x) ** a for x in col)
                        ** (1 / a) for col in joint.T)
                    want = a / (1 - a) * mpmath.log(norms)
                    got = conditional_renyi_arimoto(joint, alpha)
                    assert abs(got - want) <= 1e-13 * abs(want), alpha

    def test_monotone_in_alpha(self, rng):
        for _ in range(50):
            p = random_distribution(rng, 6)
            vals = [renyi_entropy(p, a)
                    for a in [2, 3, 10, *LARGE_ALPHAS, math.inf]]
            assert np.all(np.diff(vals) <= 0), vals

    def test_batch_rows_underflow_alone(self):
        # only the uniform row underflows; the other keeps its plain sum
        p = np.array([np.full(6, 1 / 6), [0.5, 0.5, 0, 0, 0, 0]])
        np.testing.assert_array_equal(renyi_entropies(p, 500)[1:],
                                      renyi_entropies(p[1:], 500))
        assert renyi_entropies(p, 500)[0] == pytest.approx(math.log(6),
                                                           rel=1e-13)

    def test_audit_column(self, oct_single):
        # the maximally mixed state: sum p^500 over 6 outcomes underflows
        batch = audit_state(oct_single, np.eye(2) / 2, [500, math.inf])
        assert batch.actual[0] == pytest.approx([math.log(6)] * 2,
                                                rel=1e-13, abs=0)
        assert batch.satisfied.all()

    def test_conditional_uniform(self):
        assert conditional_renyi_arimoto(np.full((2, 2), 0.25),
                                         2000) == pytest.approx(
            math.log(2), rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [1e308, 1.7e308])
    def test_huge_alpha_against_mpmath(self, rng, alpha):
        # alpha ln max(p) overflows a double here; mpmath needs no rescaling
        a = mpmath.mpf(alpha)
        for _ in range(4):
            p = random_distribution(rng, 6)
            joint = random_distribution(rng, 12).reshape(3, 4)
            with mpmath.workdps(50):
                want = mpmath.log(mpmath.fsum(mpmath.mpf(x) ** a
                                              for x in p)) / (1 - a)
                norms = mpmath.fsum(
                    mpmath.fsum(mpmath.mpf(x) ** a for x in col) ** (1 / a)
                    for col in joint.T)
                want_joint = a / (1 - a) * mpmath.log(norms)
            assert abs(renyi_entropy(p, alpha) - want) <= 1e-13 * abs(want)
            assert abs(conditional_renyi_arimoto(joint, alpha)
                       - want_joint) <= 1e-13 * abs(want_joint)

    @pytest.mark.parametrize("alpha", [0.5, 2, 3, 10, 100])
    def test_plain_sum_keeps_its_bits(self, rng, alpha):
        # where sum p^alpha does not underflow, the one-column kernel is
        # the plain formula, float for float
        for _ in range(20):
            p = random_distribution(rng, 6)
            assert renyi_entropy(p, alpha) \
                == np.log(np.sum(p**alpha)) / (1.0 - alpha)

    def test_conditional_zero_weight_column(self):
        joint = np.array([[0.5, 0.0], [0.5, 0.0]])
        assert conditional_renyi_arimoto(joint, 2000) == pytest.approx(
            math.log(2), rel=1e-13, abs=0)


@given(st.lists(st.floats(0, 1, allow_subnormal=False), min_size=1,
                max_size=12).filter(lambda w: sum(w) > 0),
       st.sampled_from([0.5, 1, 2, 3, 10, 500, math.inf]))
@settings(max_examples=300, deadline=None)
def test_one_condition_is_the_marginal(weights, alpha):
    # both are views of one kernel, so they agree exactly
    p = np.array(weights) / sum(weights)
    assert conditional_renyi_arimoto(p[:, None], alpha) \
        == renyi_entropy(p, alpha)
