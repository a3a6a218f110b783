"""The symmetric moment h_s = tr(rho^{otimes s} P_sym) from the power-sum
recursion, against the printed expansions and the tensor contraction, and
the index-of-coincidence parameters beta_n and beta that audit_states
builds on it."""

import numpy as np
import pytest

from closed_forms import (MAX_TENSOR_DIM, beta_parameters_direct,
                          pure_density, random_pure_state, sym_moment_direct)

from design_uncertainty import (assign_povms, audit_state, audit_states,
                                builtin_design, mub_grouping, random_density)
from design_uncertainty.bounds import beta_range
from design_uncertainty.designs import BUILTINS, all_outcome_probabilities
from design_uncertainty.quantum import (complete_homogeneous, maximally_mixed,
                                        power_moments, sym_dim_inv)


# orders above 5 small enough for the tensor oracle
HIGH_ORDERS = [(d, s) for d in (2, 3) for s in range(6, 9)
               if d**s <= MAX_TENSOR_DIM]


def moment(rho, s):
    """h_s of one state by the power-sum recursion."""
    return complete_homogeneous(power_moments(rho, s), s)


def betas(assignment, rho, s):
    """(beta_n, beta) of one state, read from its audit."""
    batch = audit_state(assignment, rho, (), s)
    return batch.beta_n[0], batch.beta[0]


def explicit_moment(rho, s):
    """The printed low-order expansions in terms of power moments."""
    m = power_moments(rho, 4)
    t2, t3, t4 = m[1], m[2], m[3]
    if s == 2:
        return (1 + t2) / 2
    if s == 3:
        return (1 + 3 * t2 + 2 * t3) / 6
    if s == 4:
        return (1 + 6 * t2 + 3 * t2**2 + 8 * t3 + 6 * t4) / 24
    raise ValueError(s)


class TestSymMoment:
    def test_pure_state(self):
        rho = pure_density([1, 0])
        for s in range(2, 6):
            assert abs(moment(rho, s) - 1.0) < 1e-14

    def test_maximally_mixed_qubit(self):
        assert abs(moment(maximally_mixed(2), 3) - 0.5) < 1e-14
        assert abs(moment(maximally_mixed(2), 5) - 6 / 32) < 1e-14

    def test_diagonal_family_s2(self):
        for lam in np.linspace(0, 0.5, 6):
            rho = np.diag([1 - lam, lam]).astype(complex)
            expected = (1 + 1 - 2 * lam + 2 * lam**2) / 2
            assert abs(moment(rho, 2) - expected) < 1e-14

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_matches_explicit_expansion(self, s, rng):
        for d in (2, 3):
            for _ in range(20):
                rho = random_density(d, rng)
                assert abs(moment(rho, s) - explicit_moment(rho, s)) < 1e-12

    def test_out_of_range(self, oct_single):
        # the order guard lives where beta is computed: audit_states
        with pytest.raises(ValueError, match="s must be >= 2"):
            audit_state(oct_single, maximally_mixed(2), (), 0)
        with pytest.raises(ValueError, match="s must be >= 2"):
            audit_state(oct_single, maximally_mixed(2), (), 1)


class TestDirectOracle:
    def test_pure_qubit_s2(self):
        assert abs(sym_moment_direct(pure_density([1, 0]), 2) - 1) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_recursion_agrees_with_tensor_path(self, d, rng):
        for _ in range(25):
            rho = random_density(d, rng)
            for s in range(2, 6):
                assert abs(moment(rho, s)
                           - sym_moment_direct(rho, s)) < 1e-10

    @pytest.mark.parametrize("d, s", HIGH_ORDERS)
    def test_recursion_agrees_above_order_5(self, d, s, rng):
        for _ in range(2):
            rho = random_density(d, rng)
            assert abs(moment(rho, s) - sym_moment_direct(rho, s)) < 1e-10


ORACLE_CASES = [(name, "single") for name in BUILTINS] \
    + [("octahedron", "mub")]


class TestBetaParameters:
    def test_maximally_mixed_floor(self, oct_single):
        bn, bk = betas(oct_single, maximally_mixed(2), 3)
        assert abs(bk - 1 / 36) < 1e-14 and abs(bn - bk) < 1e-16

    def test_pure_state_ceiling(self, oct_single):
        _, bk = betas(oct_single, pure_density([1, 0]), 3)
        assert abs(bk - 1 / 18) < 1e-14

    def test_icosahedron_pure_s5(self):
        single = assign_povms(builtin_design("icosahedron"), "single")
        _, bk = betas(single, pure_density([1, 0]), 5)
        assert abs(bk - 12.0**-4 * 32 / 6) < 1e-15

    def test_s_above_strength_rejected(self, oct_single):
        with pytest.raises(ValueError, match="strength"):
            betas(oct_single, maximally_mixed(2), 4)

    def test_index_identity_holds(self, oct_mub, rng):
        # sum_m sum_j p^s = M * beta_n, verified internally at 1e-10
        for _ in range(25):
            rho = random_density(2, rng)
            for s in (2, 3):
                bn, _ = betas(oct_mub, rho, s)
                probs = all_outcome_probabilities(oct_mub, rho)
                assert abs(np.sum(probs**s) - 3 * bn) < 1e-10

    def test_within_admissible_range(self, oct_single, oct_mub, rng):
        for assignment in (oct_single, oct_mub):
            lo, hi = beta_range(assignment.n_outcomes, 2, 3)
            for _ in range(25):
                bn, _ = betas(assignment, random_density(2, rng), 3)
                assert lo - 1e-12 <= bn <= hi + 1e-12

    def test_monotone_in_mixedness(self, oct_single):
        lams = np.linspace(0, 0.5, 30)
        rhos = [np.diag([1 - l, l]).astype(complex) for l in lams]
        batch = audit_states(oct_single, rhos, (), 3)
        assert np.all(np.diff(batch.beta) < 0)

    @pytest.mark.parametrize("name, grouping", ORACLE_CASES)
    def test_batch_matches_tensor_oracle(self, name, grouping, rng):
        design = builtin_design(name)
        assignment = assign_povms(
            design, mub_grouping() if grouping == "mub" else grouping)
        d = design.dimension
        rhos = [maximally_mixed(d), pure_density(np.eye(d)[0])]
        rhos += [pure_density(random_pure_state(d, rng)) for _ in range(3)]
        rhos += [random_density(d, rng) for _ in range(3)]
        for s in range(2, design.strength + 1):
            batch = audit_states(assignment, rhos, (), s)
            for i, rho in enumerate(rhos):
                bn, bk = beta_parameters_direct(assignment, rho, s)
                assert batch.beta_n[i] == pytest.approx(bn, rel=1e-12, abs=0)
                assert batch.beta[i] == pytest.approx(bk, rel=1e-12, abs=0)


class TestBetaRange:
    def test_examples(self):
        assert beta_range(6, 2, 3) == (1 / 36, pytest.approx(1 / 18, abs=1e-16))
        lo, hi = beta_range(30, 2, 5)
        assert lo == pytest.approx(30.0**-4) and hi == pytest.approx(30.0**-4 * 32 / 6)
        lo2, hi2 = beta_range(2, 2, 3)
        assert lo2 == pytest.approx(0.25) and hi2 == pytest.approx(0.5)

    def test_mixed_state_unit_identity(self):
        # d^s * sym_dim_inv * h_s(rho*) = 1 exactly
        for d in (2, 3, 4):
            for s in range(2, 9):
                val = moment(maximally_mixed(d), s)
                assert abs(d**s * sym_dim_inv(d, s) * val - 1.0) < 1e-12
