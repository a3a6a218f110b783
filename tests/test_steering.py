import math

import mpmath
import numpy as np
import pytest
from closed_forms import pure_density, upsilon_mp, upsilon_newton

from design_uncertainty import (QuantumDesign, assign_povms, builtin_design,
                                conditional_renyi_arimoto,
                                matched_alice_povms, mub_grouping,
                                random_density, steering_check_maxprob,
                                steering_check_renyi)
from design_uncertainty.designs import outcome_probabilities
from design_uncertainty.entropy import renyi_entropy
from design_uncertainty.quantum import (maximally_mixed, partial_trace,
                                       random_densities)
from design_uncertainty.steering import conditioned_ensemble


DIMS = (2, 2)


@pytest.fixture(scope="module")
def mub():
    return assign_povms(builtin_design("octahedron"), mub_grouping())


@pytest.fixture(scope="module")
def alice(mub):
    return matched_alice_povms(mub)


def bell_state():
    phi = np.zeros(4, complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    return np.outer(phi, phi.conj())


def random_separable(rng, terms=4):
    w = rng.dirichlet(np.ones(terms))
    return sum(w[i] * np.kron(random_density(2, rng), random_density(2, rng))
               for i in range(terms))


class TestConditionedEnsemble:
    def test_product_state_not_steered(self, alice, rng):
        rho_b = random_density(2, rng)
        rho_ab = np.kron(random_density(2, rng), rho_b)
        ens = conditioned_ensemble(rho_ab, DIMS, alice[0])
        for st, ok in zip(ens.states, ens.valid):
            assert ok
            np.testing.assert_allclose(st, rho_b, atol=1e-12)

    def test_bell_state_projects_basis(self, alice):
        # measuring Alice in z projects Bob onto the matching basis state
        ens = conditioned_ensemble(bell_state(), DIMS, alice[2])
        np.testing.assert_allclose(ens.weights, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(ens.states[0],
                                   pure_density([1, 0]), atol=1e-12)
        np.testing.assert_allclose(ens.states[1],
                                   pure_density([0, 1]), atol=1e-12)

    def test_ensemble_reconstructs_reduced_state(self, alice, rng):
        for _ in range(50):
            rho_ab = random_separable(rng)
            for povm in alice:
                ens = conditioned_ensemble(rho_ab, DIMS, povm)
                recon = sum(w * st for w, st in zip(ens.weights, ens.states))
                np.testing.assert_allclose(
                    recon, partial_trace(rho_ab, DIMS, "B"), atol=1e-10)

    def test_zero_weight_outcome_flagged(self, alice):
        # Alice side pure |0>: the z-basis outcome |1> never fires
        rho_ab = np.kron(pure_density([1, 0]), maximally_mixed(2))
        ens = conditioned_ensemble(rho_ab, DIMS, alice[2])
        assert ens.valid[0] and not ens.valid[1]
        assert ens.weights[1] == 0.0

    def test_invalid_povm_rejected(self):
        rho_ab = np.kron(maximally_mixed(2), maximally_mixed(2))
        bad = [np.eye(2) * 0.4, np.eye(2) * 0.4]
        with pytest.raises(ValueError, match="identity"):
            conditioned_ensemble(rho_ab, DIMS, bad)


class TestRenyiSteering:
    def test_product_state_equals_unconditional(self, mub, alice, rng):
        rho_b = random_density(2, rng)
        rho_ab = np.kron(random_density(2, rng), rho_b)
        res = steering_check_renyi(rho_ab, DIMS, alice, mub, math.inf)
        expected = np.mean([renyi_entropy(
            outcome_probabilities(mub, m, rho_b), math.inf) for m in range(3)])
        assert res.lhs == pytest.approx(expected, abs=1e-10)
        assert res.satisfied

    @pytest.mark.parametrize("alpha", [3, 5, math.inf])
    def test_separable_states_satisfy(self, mub, alice, alpha, rng):
        for _ in range(30):
            res = steering_check_renyi(random_separable(rng), DIMS, alice,
                                       mub, alpha)
            assert res.satisfied

    def test_bell_state_violates(self, mub, alice):
        res = steering_check_renyi(bell_state(), DIMS, alice, mub, math.inf)
        assert res.lhs == pytest.approx(0.0, abs=1e-10)
        assert res.rhs > 0 and not res.satisfied

    def test_m_mismatch_rejected(self, mub, alice):
        with pytest.raises(ValueError, match="POVMs"):
            steering_check_renyi(bell_state(), DIMS, alice[:2], mub, math.inf)


class TestMaxProbSteering:
    def test_product_mixed_bob(self, mub, alice, rng):
        rho_ab = np.kron(random_density(2, rng), maximally_mixed(2))
        res = steering_check_maxprob(rho_ab, DIMS, alice, mub)
        assert res.lhs == pytest.approx(0.5, abs=1e-10)
        assert res.satisfied

    def test_rhs_is_state_independent_cap(self, mub, alice):
        res = steering_check_maxprob(bell_state(), DIMS, alice, mub)
        assert res.rhs == pytest.approx(upsilon_newton(2, 3, 0.5).value,
                                        abs=1e-12)

    def test_rhs_against_mpmath(self, mub, alice):
        # n = 2, d = 2, t = 3: the ceiling beta_hi = 2^{-2} 2^3 / dim_sym
        # with dim_sym = 4; the cap is Y(2, 3, beta_hi), the Renyi rhs
        # bound_prop2 there at alpha = inf and alpha = 3
        rho = bell_state()
        with mpmath.workdps(40):
            beta_hi = mpmath.mpf(2) ** -2 * 2**3 / 4
            cap = upsilon_mp(2, 3, beta_hi)
            want = {"cap": cap, math.inf: -mpmath.log(cap),
                    3.0: -mpmath.log(beta_hi) / 2}
            got = {"cap": steering_check_maxprob(rho, DIMS, alice, mub).rhs}
            for alpha in (math.inf, 3.0):
                got[alpha] = steering_check_renyi(rho, DIMS, alice, mub,
                                                  alpha).rhs
            for key, value in want.items():
                assert abs(mpmath.mpf(got[key]) - value) <= 1e-12 * value, key

    def test_separable_states_satisfy(self, mub, alice, rng):
        for _ in range(30):
            res = steering_check_maxprob(random_separable(rng), DIMS, alice,
                                         mub)
            assert res.satisfied

    def test_bell_state_violates(self, mub, alice):
        res = steering_check_maxprob(bell_state(), DIMS, alice, mub)
        assert res.lhs == pytest.approx(1.0, abs=1e-10)
        assert not res.satisfied


def qutrit_mubs():
    """The complete set of 4 MUBs in d = 3, a 2-design of 12 vectors: the
    computational basis and the bases omega^(k j^2 + l j) / sqrt(3), k = 0..2,
    after Wootters & Fields (1989); one POVM per basis."""
    omega = np.exp(2j * np.pi / 3)
    j = np.arange(3)
    vectors = [np.eye(3)] + [
        np.array([omega ** (k * j * j + ell * j) for ell in range(3)])
        / math.sqrt(3) for k in range(3)]
    design = QuantumDesign(3, 2, np.concatenate(vectors))
    return assign_povms(design, [[3 * b + i for i in range(3)]
                                 for b in range(4)])


class TestMatchedAlicePovms:
    def test_transposes_of_bob_elements(self):
        bob = qutrit_mubs()
        for m, povm in enumerate(matched_alice_povms(bob)):
            for f, e in zip(povm, bob.povm_elements(m)):
                np.testing.assert_array_equal(f, e.T)

    def test_maximally_entangled_qutrits_steer(self):
        # Bob's own elements on Alice's side correlate only the real
        # basis: the Renyi lhs was 0.549 against rhs 0.405, and the
        # max-probability lhs 0.667 against cap 0.667
        bob = qutrit_mubs()
        alice = matched_alice_povms(bob)
        phi = np.eye(3).ravel() / math.sqrt(3)
        rho = np.outer(phi, phi.conj())
        renyi = steering_check_renyi(rho, (3, 3), alice, bob, math.inf)
        assert renyi.lhs == pytest.approx(0.0, abs=1e-10)
        assert not renyi.satisfied
        maxprob = steering_check_maxprob(rho, (3, 3), alice, bob)
        assert maxprob.lhs == pytest.approx(1.0, abs=1e-10)
        assert not maxprob.satisfied


CHECKS = [lambda rho, dims, alice, mub: steering_check_renyi(
              rho, dims, alice, mub, math.inf),
          steering_check_maxprob]


class TestInputValidation:
    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("rho, match", [
        (2 * np.eye(4) / 4, "trace"),                         # trace 2
        (np.diag([1.2, -0.2, 0.0, 0.0]), "negative"),         # not PSD
        (np.full((4, 4), np.nan), "non-finite"),
        (np.eye(6) / 6, "dims")])                             # shape vs dims
    def test_bad_states_rejected(self, mub, alice, check, rho, match):
        with pytest.raises(ValueError, match=match):
            check(rho, DIMS, alice, mub)

    @pytest.mark.parametrize("check", CHECKS)
    def test_alice_dimension_mismatch(self, mub, alice, check):
        # dims claim a qutrit for Alice, whose POVMs act on a qubit
        with pytest.raises(ValueError, match="elements have shape"):
            check(np.eye(6) / 6, (3, 2), alice, mub)

    @pytest.mark.parametrize("check", CHECKS)
    def test_bob_dimension_mismatch(self, mub, alice, check):
        with pytest.raises(ValueError, match="Bob dimension"):
            check(np.eye(6) / 6, (2, 3), alice, mub)

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("povm, match", [
        ([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])], "negative"),
        ([np.array([[0.5, 0.5], [0.0, 0.5]]),
          np.array([[0.5, -0.5], [0.0, 0.5]])], "Hermitian"),
        ([np.full((2, 2), np.nan), np.eye(2)], "Hermitian"),
        ([np.eye(3)], "elements have shape")])
    def test_bad_alice_povm_rejected(self, mub, alice, check, povm, match):
        with pytest.raises(ValueError, match=match):
            check(bell_state(), DIMS, [povm] + alice[1:], mub)

    @pytest.mark.parametrize("check", CHECKS)
    def test_results_are_plain_python(self, mub, alice, check, rng):
        for rho in (bell_state(), random_separable(rng)):
            res = check(rho, DIMS, alice, mub)
            assert type(res.lhs) is float and type(res.rhs) is float
            assert type(res.satisfied) is bool


def sqrt_conditioned_joints(rho_ab, dims, alice, bob):
    """Oracle: the joint matrices p[j, l] = p_l p(j | rho_Bl), one per Alice
    POVM, from sqrt(F_l) by eigh, rho_Bl the partial trace over A of
    (sqrt(F_l) (x) I) rho_AB (sqrt(F_l) (x) I) over its weight p_l, and one
    Bob distribution per outcome of weight >= 1e-14."""
    eye_b = np.eye(dims[1])
    joints = []
    for m, povm in enumerate(alice):
        joint = np.zeros((bob.n_outcomes, len(povm)))
        for ell, f in enumerate(povm):
            evals, evecs = np.linalg.eigh(f)
            root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) \
                @ evecs.conj().T
            sub = np.kron(root, eye_b) @ rho_ab @ np.kron(root, eye_b)
            w = float(np.trace(sub).real)
            if w >= 1e-14:
                rho_b = partial_trace(sub, dims, "B") / w
                joint[:, ell] = w * outcome_probabilities(bob, m, rho_b)
        joints.append(joint)
    return joints


def loop_oracle(rho_ab, dims, alice, bob, alphas):
    """Both left-hand sides from the square-root conditioning: the Renyi lhs
    at each alpha and the max-probability lhs, as loops over the POVMs."""
    joints = sqrt_conditioned_joints(rho_ab, dims, alice, bob)
    renyi = {alpha: sum(conditional_renyi_arimoto(j, alpha) for j in joints)
             / len(alice) for alpha in alphas}
    maxprob = 0.0
    for joint in joints:
        for col in joint.T:
            maxprob += float(np.max(col))
    return renyi, maxprob / len(alice)


def seeded_states(rng, count):
    """The Bell state, a product state with a zero-weight outcome, and count
    each of random, separable and Werner two-qubit states."""
    states = [bell_state(),
              np.kron(pure_density([1, 0]), maximally_mixed(2))]
    states += list(random_densities(4, count, rng))
    states += [random_separable(rng) for _ in range(count)]
    states += [v * bell_state() + (1 - v) * np.eye(4) / 4
               for v in rng.uniform(size=count)]
    return states


def random_povm(d, outcomes, rng):
    """A POVM on C^d: a random rank-1 projector and its complement for two
    outcomes, else S^(-1/2) A_l S^(-1/2) of random full-rank A_l with
    S = sum_l A_l."""
    if outcomes == 2:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        p = np.outer(v, v.conj()) / np.vdot(v, v).real
        return [p, np.eye(d) - p]
    shape = (outcomes, d, d)
    gs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ops = gs @ gs.conj().swapaxes(-1, -2)
    evals, evecs = np.linalg.eigh(ops.sum(axis=0))
    s = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [s @ a @ s for a in ops]


def octahedron(grouping):
    return assign_povms(builtin_design("octahedron"),
                        mub_grouping() if grouping == "mub" else grouping)


class TestAgainstLoopOracle:
    # the assemblage and the square-root conditioning are each within
    # 1e-15 of the 50-digit oracle, so within 2e-15 of each other
    @pytest.mark.parametrize("grouping", ["mub", "single"])
    def test_matches_sqrt_conditioning(self, grouping, rng):
        bob = octahedron(grouping)
        alice = matched_alice_povms(bob)
        alphas = (3, 5, math.inf)
        for rho_ab in seeded_states(rng, 20):
            renyi, maxprob = loop_oracle(rho_ab, DIMS, alice, bob, alphas)
            for alpha in alphas:
                lhs = steering_check_renyi(rho_ab, DIMS, alice, bob, alpha).lhs
                assert abs(lhs - renyi[alpha]) <= 2e-15, (alpha, lhs)
            lhs = steering_check_maxprob(rho_ab, DIMS, alice, bob).lhs
            assert abs(lhs - maxprob) <= 2e-15, lhs


class TestAssemblage:
    @pytest.mark.parametrize("dims", [(3, 2), (2, 3)])
    def test_matches_partial_trace(self, dims, rng):
        # sigma_l = tr_A((F_l (x) I) rho_AB), and the sigma_l sum to tr_A rho
        da, db = dims
        for rho_ab in random_densities(da * db, 20, rng):
            for outcomes in (2, 3, 4):
                povm = random_povm(da, outcomes, rng)
                ens = conditioned_ensemble(rho_ab, dims, povm)
                assert ens.valid.all()
                for f, w, st in zip(povm, ens.weights, ens.states):
                    want = partial_trace(np.kron(f, np.eye(db)) @ rho_ab,
                                         dims, "B")
                    np.testing.assert_allclose(w * st, want, atol=1e-14)
                recon = sum(w * st for w, st in zip(ens.weights, ens.states))
                np.testing.assert_allclose(
                    recon, partial_trace(rho_ab, dims, "B"), atol=1e-14)

    @pytest.mark.parametrize("shape", [(2, 8), (16,), (4, 4, 1)])
    def test_state_shape_checked_before_reshape(self, alice, shape):
        # 16 entries would reshape silently into a two-qubit operator
        rho_ab = np.eye(4).reshape(shape) / 4
        with pytest.raises(ValueError, match="dims"):
            conditioned_ensemble(rho_ab, DIMS, alice[0])


def steering_lhs_mp(rho_ab, dims, alice, bob, alphas):
    """Oracle: the Renyi lhs at each alpha and the max-probability lhs at 50
    digits from the joint distributions p(j, l | m) = tr((F_l (x) E_j)
    rho_AB), without conditioned_ensemble."""
    da, db = dims
    pairs_a = [(a, b) for a in range(da) for b in range(da)]
    pairs_b = [(c, g) for c in range(db) for g in range(db)]

    def mp(op):
        return [[mpmath.mpc(x) for x in row] for row in op.tolist()]

    with mpmath.workdps(50):
        rho = mp(rho_ab)
        renyi = dict.fromkeys(alphas, mpmath.mpf(0))
        maxprob = mpmath.mpf(0)
        for m, povm in enumerate(alice):
            bob_ops = [mp(e) for e in bob.povm_elements(m)]
            # column l: tr((F (x) E) rho) = sum F[a, b] E[c, g] rho[bg, ac]
            cols = [[max(mpmath.re(mpmath.fsum(
                f[a][b] * e[c][g] * rho[b * db + g][a * db + c]
                for a, b in pairs_a for c, g in pairs_b)), 0)
                for e in bob_ops] for f in map(mp, povm)]
            maxprob += mpmath.fsum(max(c) for c in cols)
            for alpha in alphas:
                if math.isinf(alpha):
                    renyi[alpha] += -mpmath.log(mpmath.fsum(max(c)
                                                            for c in cols))
                    continue
                q = mpmath.mpf(alpha)
                norms = mpmath.fsum(mpmath.fsum(x**q for x in c) ** (1 / q)
                                    for c in cols)
                renyi[alpha] += q / (1 - q) * mpmath.log(norms)
        return ({alpha: v / len(alice) for alpha, v in renyi.items()},
                maxprob / len(alice))


def assert_near_mp(rho_ab, dims, alice, bob, alphas=(3, 5, math.inf)):
    """Both checks within 1e-15 of the 50-digit oracle."""
    renyi, maxprob = steering_lhs_mp(rho_ab, dims, alice, bob, alphas)
    for alpha in alphas:
        lhs = steering_check_renyi(rho_ab, dims, alice, bob, alpha).lhs
        assert abs(lhs - renyi[alpha]) <= 1e-15, (alpha, lhs, renyi[alpha])
    lhs = steering_check_maxprob(rho_ab, dims, alice, bob).lhs
    assert abs(lhs - maxprob) <= 1e-15, (lhs, maxprob)


class TestAgainstMpmath:
    def test_renyi_lhs_on_seeded_states(self, mub, alice):
        rng = np.random.default_rng(4057)
        states = list(random_densities(4, 100, rng))
        states += [random_separable(rng) for _ in range(100)]
        states += [v * bell_state() + (1 - v) * np.eye(4) / 4
                   for v in rng.uniform(size=100)]
        for rho_ab in states:
            assert_near_mp(rho_ab, DIMS, alice, mub)

    def test_single_grouping(self):
        rng = np.random.default_rng(4058)
        bob = octahedron("single")
        alice = matched_alice_povms(bob)
        for rho_ab in seeded_states(rng, 30):
            assert_near_mp(rho_ab, DIMS, alice, bob)

    def test_qutrit_alice_with_ragged_povms(self, mub):
        # Alice on C^3 with POVMs of 3, 2 and 4 outcomes, Bob a qubit
        rng = np.random.default_rng(4059)
        dims = (3, 2)
        alice = [random_povm(3, k, rng) for k in (3, 2, 4)]
        states = list(random_densities(6, 60, rng))
        states += [np.kron(random_density(3, rng), random_density(2, rng))
                   for _ in range(30)]
        for rho_ab in states:
            assert_near_mp(rho_ab, dims, alice, mub)
