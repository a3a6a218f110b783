import itertools
import math

import numpy as np
import pytest

from closed_forms import (pure_density, random_pure_state, sym_projector,
                          tensor_power)

from design_uncertainty import check_density, random_densities, random_density
from design_uncertainty.quantum import (bloch_to_state, maximally_mixed,
                                        partial_trace, power_moments)



def permutation_operator(d, sigma):
    """Tensor-factor permutation matrix on (C^d)^{otimes t}."""
    t = len(sigma)
    digits = np.array(list(itertools.product(range(d), repeat=t)))
    weights = d ** np.arange(t - 1, -1, -1)
    permuted = digits[:, list(sigma)] @ weights
    op = np.zeros((d**t, d**t))
    op[permuted, np.arange(d**t)] = 1.0
    return op


class TestBlochToState:
    @pytest.mark.parametrize("b, expected", [
        ((0, 0, 1), [1, 0]),
        ((0, 0, -1), [0, 1]),
        ((1, 0, 0), [1 / math.sqrt(2), 1 / math.sqrt(2)]),
    ])
    def test_pauli_eigenstates(self, b, expected):
        np.testing.assert_allclose(bloch_to_state(b), expected, atol=1e-15)

    def test_phase_convention(self):
        psi = bloch_to_state((0, 1, 0))
        assert psi[0].imag == 0 and psi[0].real > 0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            bloch_to_state((0, 0, 0.9))

    def test_eigenvector_property(self, rng):
        sx = np.array([[0, 1], [1, 0]], complex)
        sy = np.array([[0, -1j], [1j, 0]], complex)
        sz = np.array([[1, 0], [0, -1]], complex)
        for _ in range(20):
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
            psi = bloch_to_state(b)
            h = b[0] * sx + b[1] * sy + b[2] * sz
            np.testing.assert_allclose(h @ psi, psi, atol=1e-12)


class TestSymProjector:
    @pytest.mark.parametrize("d, t", [(2, 1), (2, 2), (2, 5), (3, 3)])
    def test_trace_is_symmetric_dimension(self, d, t):
        p = sym_projector(d, t)
        assert abs(np.trace(p).real - math.comb(d + t - 1, t)) < 1e-9

    @pytest.mark.parametrize("d, t", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3)])
    def test_idempotent_hermitian(self, d, t):
        p = sym_projector(d, t)
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.conj().T)) < 1e-12

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_commutes_with_factor_permutations(self, t):
        p = sym_projector(2, t)
        for sigma in itertools.permutations(range(t)):
            op = permutation_operator(2, sigma)
            assert np.max(np.abs(p @ op - op @ p)) < 1e-10

    def test_t1_is_identity(self):
        np.testing.assert_allclose(sym_projector(2, 1), np.eye(2), atol=1e-15)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="exceeds"):
            sym_projector(4, 7)


class TestPowerMoments:
    def test_pure_state(self):
        rho = pure_density([1, 0])
        np.testing.assert_allclose(power_moments(rho, 4), [1, 1, 1, 1],
                                   atol=1e-14)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(power_moments(maximally_mixed(2), 3),
                                   [1, 0.5, 0.25], atol=1e-14)

    def test_diagonal(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        np.testing.assert_allclose(power_moments(rho, 2), [1, 0.58],
                                   atol=1e-14)

    def test_weakly_decreasing(self, rng):
        for _ in range(10):
            m = power_moments(random_density(3, rng), 5)
            assert np.all(np.diff(m) <= 1e-14)


class TestRandomDensity:
    def test_deterministic(self):
        a = random_density(4, 123)
        b = random_density(4, 123)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("ensemble", ["pure", "hilbert-schmidt"])
    def test_invariants(self, ensemble, rng):
        for _ in range(20):
            rho = pure_density(random_pure_state(3, rng)) \
                if ensemble == "pure" else random_density(3, rng)
            check_density(rho)


def hilbert_schmidt_loop(d, count, seed):
    """Oracle: count single draws, two (d, d) standard-normal blocks each."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        out.append(m / np.trace(m).real)
    return np.stack(out)


class TestRandomDensities:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 7, 4057])
    def test_bit_identical_to_single_draws(self, d, seed):
        got = random_densities(d, 25, np.random.default_rng(seed))
        want = hilbert_schmidt_loop(d, 25, seed)
        assert got.shape == (25, d, d)
        assert got.tobytes() == want.tobytes()

    def test_single_state_is_a_view(self):
        a = random_density(3, np.random.default_rng(5))
        b = random_densities(3, 1, np.random.default_rng(5))[0]
        assert a.tobytes() == b.tobytes()

    def test_stream_continues_where_it_left_off(self):
        rng = np.random.default_rng(11)
        first = random_densities(2, 3, rng)
        second = random_densities(2, 4, rng)
        want = hilbert_schmidt_loop(2, 7, 11)
        assert np.concatenate([first, second]).tobytes() == want.tobytes()

    def test_states_are_densities(self, rng):
        for rho in random_densities(4, 20, rng):
            check_density(rho)

    def test_counts(self):
        assert random_densities(2, 0, 3).shape == (0, 2, 2)
        with pytest.raises(ValueError, match="count"):
            random_densities(2, -1, 3)


class TestCheckDensity:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            check_density(np.full((2, 2), bad))
        rho = maximally_mixed(2)
        rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_density(rho)

    @pytest.mark.parametrize("rho, match", [
        (np.eye(2), "trace"),
        (np.diag([1.5, -0.5]), "negative"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "Hermitian"),
        (np.ones((2, 3)) / 2, "square")])
    def test_rejects_non_densities(self, rho, match):
        with pytest.raises(ValueError, match=match):
            check_density(rho)


class TestTensorAndPartialTrace:
    def test_tensor_power_mixed(self):
        np.testing.assert_allclose(tensor_power(maximally_mixed(2), 2),
                                   np.eye(4) / 4, atol=1e-15)

    def test_partial_trace_product(self, rng):
        rho_a = random_density(2, rng)
        rho_b = random_density(3, rng)
        ab = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(ab, (2, 3), "A"), rho_a,
                                   atol=1e-12)
        np.testing.assert_allclose(partial_trace(ab, (2, 3), "B"), rho_b,
                                   atol=1e-12)

    def test_partial_trace_entangled(self):
        phi = np.zeros(4, complex)
        phi[0] = phi[3] = 1 / math.sqrt(2)
        rho = np.outer(phi, phi.conj())
        np.testing.assert_allclose(partial_trace(rho, (2, 2), "B"),
                                   maximally_mixed(2), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, (2, 3), "A")
