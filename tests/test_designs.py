import json
import math

import numpy as np
import pytest

from closed_forms import operator_residual, pure_density, random_pure_state

from design_uncertainty import (AssignmentError, DesignLoadError,
                                QuantumDesign, assign_povms, builtin_design,
                                load_design, mub_grouping, random_density,
                                save_design, verify_design)
from design_uncertainty.designs import frame_potential, outcome_probabilities
from design_uncertainty.quantum import maximally_mixed, sym_dim_inv
from design_uncertainty.steering import conditioned_ensemble


class TestBuiltins:
    @pytest.mark.parametrize("name, size, strength", [
        ("octahedron", 6, 3),
        ("icosahedron", 12, 5),
        ("icosidodecahedron", 30, 5),
    ])
    def test_claimed_strength(self, name, size, strength):
        design = builtin_design(name)
        assert design.size == size and design.strength == strength
        assert verify_design(design, strength, tol=1e-10).passes

    def test_octahedron_is_pauli_eigenstates(self, octahedron):
        sx = np.array([[0, 1], [1, 0]], complex)
        sy = np.array([[0, -1j], [1j, 0]], complex)
        sz = np.array([[1, 0], [0, -1]], complex)
        for pauli in (sx, sy, sz):
            for sign in (1, -1):
                overlaps = np.abs([v.conj() @ (pauli @ v) - sign
                                   for v in octahedron.vectors])
                assert np.min(overlaps) < 1e-12  # some vector is an eigenstate
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown design"):
            builtin_design("cube")

    @pytest.mark.parametrize("name", ["octahedron", "icosahedron",
                                      "icosidodecahedron"])
    def test_built_once_and_read_only(self, name):
        design = builtin_design(name)
        assert builtin_design(name) is design
        with pytest.raises(ValueError, match="read-only"):
            design.vectors[0, 0] = 0.0


class TestQuantumDesign:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_row(self, octahedron, bad):
        vectors = octahedron.vectors.copy()
        vectors[3, 0] = bad
        with pytest.raises(ValueError, match="vector 3"):
            QuantumDesign(dimension=2, strength=3, vectors=vectors)

    @pytest.mark.parametrize("field, value", [
        ("dimension", 2.0), ("dimension", True), ("dimension", 0),
        ("strength", 3.9), ("strength", True), ("strength", 0),
        ("strength", "3")])
    def test_rejects_non_integer_fields(self, octahedron, field, value):
        fields = {"dimension": 2, "strength": 3, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QuantumDesign(vectors=octahedron.vectors, **fields)

    def test_numpy_integers_stored_as_int(self, octahedron):
        design = QuantumDesign(dimension=np.int64(2), strength=np.int32(3),
                               vectors=octahedron.vectors)
        assert type(design.dimension) is int and type(design.strength) is int


def _ensemble(octahedron):
    phi = np.zeros(4, complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    alice = assign_povms(octahedron, mub_grouping()).povm_elements(2)
    return conditioned_ensemble(np.outer(phi, phi.conj()), (2, 2), alice)


class TestIdentitySemantics:
    # the fields hold ndarrays, whose == is element-wise: two objects with
    # equal contents compare unequal, and each hashes by identity
    @pytest.mark.parametrize("build", [
        lambda o: QuantumDesign(2, 3, o.vectors.copy()),
        lambda o: assign_povms(o, mub_grouping()),
        _ensemble,
    ], ids=["QuantumDesign", "PovmAssignment", "ConditionalEnsemble"])
    def test_hash_and_compare_by_identity(self, octahedron, build):
        a, b = build(octahedron), build(octahedron)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestFramePotential:
    def test_octahedron_s3(self, octahedron):
        assert abs(frame_potential(octahedron, 3) - 0.25) < 1e-14

    def test_octahedron_s4_exceeds(self, octahedron):
        fp = frame_potential(octahedron, 4)
        assert abs(fp - 7.5 / 36) < 1e-14
        assert fp > sym_dim_inv(2, 4)

    @pytest.mark.parametrize("name", ["octahedron", "icosahedron",
                                      "icosidodecahedron"])
    def test_s1_resolution_of_identity(self, name):
        assert abs(frame_potential(builtin_design(name), 1) - 0.5) < 1e-12

    @pytest.mark.parametrize("name", ["octahedron", "icosahedron",
                                      "icosidodecahedron"])
    def test_welch_bound(self, name):
        design = builtin_design(name)
        for s in range(1, design.strength + 2):
            assert frame_potential(design, s) >= sym_dim_inv(2, s) - 1e-10


class TestVerifyDesign:
    def test_octahedron_fails_t4(self, octahedron):
        report = verify_design(octahedron, 4)
        assert not report.passes
        assert abs(report.residuals[4] - 1 / 120) < 1e-12

    def test_icosahedron_fails_t6(self, icosahedron):
        report = verify_design(icosahedron, 6)
        assert not report.passes
        fp6 = frame_potential(icosahedron, 6)
        assert abs(fp6 - 0.14334) < 5e-5 and fp6 > 1 / 7

    @pytest.mark.parametrize("name", ["octahedron", "icosahedron",
                                      "icosidodecahedron"])
    def test_methods_agree(self, name):
        # the frame potential and the dense operator give the same residual:
        # ||A_s - P_sym/D_s||_HS^2 = FP_s - 1/D_s, since tr A_s P_sym = 1
        # and tr P_sym = D_s; zero through t and positive at t + 1
        design = builtin_design(name)
        for s in range(1, design.strength + 2):
            hs2, max_abs = operator_residual(design, s)
            gap = frame_potential(design, s) - sym_dim_inv(2, s)
            assert abs(hs2 - gap) <= 1e-12
            assert max_abs <= math.sqrt(hs2) + 1e-15
        assert hs2 > 1e-6


class TestDesignIO:
    def test_round_trip(self, octahedron, tmp_path):
        path = tmp_path / "oct.json"
        save_design(octahedron, path)
        loaded = load_design(path)
        np.testing.assert_allclose(loaded.vectors, octahedron.vectors,
                                   atol=1e-15)
        assert verify_design(loaded, 3).passes

    def test_bad_norm_names_vector(self, octahedron, tmp_path):
        path = tmp_path / "bad.json"
        save_design(octahedron, path)
        raw = json.loads(path.read_text())
        raw["vectors"][2] = [[0.9, 0.0], [0.0, 0.0]]
        path.write_text(json.dumps(raw))
        with pytest.raises(DesignLoadError, match="vector 2"):
            load_design(path)

    def test_rejects_nan(self, octahedron, tmp_path):
        path = tmp_path / "nan.json"
        save_design(octahedron, path)
        path.write_text(path.read_text().replace("1.0", "NaN", 1))
        with pytest.raises(DesignLoadError):
            load_design(path)

    @pytest.mark.parametrize("component", [0.5, [0.5, 0.0, 0.0], "x"])
    def test_rejects_malformed_pair(self, octahedron, tmp_path, component):
        path = tmp_path / "bad.json"
        save_design(octahedron, path)
        raw = json.loads(path.read_text())
        raw["vectors"][1][0] = component
        path.write_text(json.dumps(raw))
        with pytest.raises(DesignLoadError):
            load_design(path)

    @pytest.mark.parametrize("field, value", [("strength", 3.9),
                                              ("strength", True),
                                              ("dimension", 2.5)])
    def test_rejects_non_integer_field(self, octahedron, tmp_path, field,
                                       value):
        # int() would load 3.9 as 3 and True as 1
        path = tmp_path / "bad.json"
        save_design(octahedron, path)
        raw = json.loads(path.read_text())
        raw[field] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(DesignLoadError, match=f"{field} must be an integer"):
            load_design(path)

    @pytest.mark.parametrize("pair, match", [
        ([True, False], "True is not a number"),
        (["1", 0], "'1' is not a number"),
        ([1, None], "None is not a number"),
        ([10**400, 0], "too large")], ids=["bool", "str", "null", "1e400"])
    def test_rejects_non_number_entry(self, octahedron, tmp_path, pair,
                                      match):
        # vector 0 is (1, 0), so the first two would load as the octahedron
        path = tmp_path / "bad.json"
        save_design(octahedron, path)
        raw = json.loads(path.read_text())
        raw["vectors"][0][0] = pair
        path.write_text(json.dumps(raw))
        with pytest.raises(DesignLoadError, match=match):
            load_design(path)

    def test_rejects_k_less_than_d(self, tmp_path):
        path = tmp_path / "small.json"
        path.write_text(json.dumps(
            {"dimension": 3, "strength": 1, "vectors": [[[1, 0], [0, 0], [0, 0]]]}))
        with pytest.raises(DesignLoadError, match="K="):
            load_design(path)

    def test_generic_set_fails_verification(self, tmp_path, rng):
        vectors = np.array([random_pure_state(3, rng) for _ in range(9)])
        design = QuantumDesign(dimension=3, strength=2, vectors=vectors)
        path = tmp_path / "generic.json"
        save_design(design, path)
        loaded = load_design(path)
        assert not verify_design(loaded, 2).passes


class TestAssignPovms:
    def test_single(self, octahedron):
        a = assign_povms(octahedron, "single")
        assert a.n_povms == 1 and a.n_outcomes == 6
        total = sum(a.povm_elements(0))
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_mub_partition(self, octahedron):
        a = assign_povms(octahedron, mub_grouping())
        assert a.n_povms == 3 and a.n_outcomes == 2
        for m in range(3):
            e0, e1 = a.povm_elements(m)
            # projective basis: rank-one projectors summing to identity
            np.testing.assert_allclose(e0 @ e0, e0, atol=1e-12)
            np.testing.assert_allclose(e0 + e1, np.eye(2), atol=1e-12)

    def test_bad_block_rejected(self, octahedron):
        # {+x, +y} is not a resolution of the identity
        with pytest.raises(AssignmentError, match="block 0"):
            assign_povms(octahedron, [[0, 2], [1, 3], [4, 5]])

    def test_first_bad_block_named(self, octahedron):
        # blocks 1 and 2 both fail; the batched check names the first
        with pytest.raises(AssignmentError) as info:
            assign_povms(octahedron, [[0, 1], [2, 4], [3, 5]])
        assert str(info.value) == "block 1 does not resolve the identity"

    def test_vectors_built_once_read_only(self, octahedron):
        a = assign_povms(octahedron, mub_grouping())
        assert a.vectors is a.vectors
        np.testing.assert_array_equal(
            a.vectors, octahedron.vectors[np.array(mub_grouping())])
        with pytest.raises(ValueError):
            a.vectors[0, 0, 0] = 0.0

    def test_povm_elements_read_the_stack(self, octahedron):
        a = assign_povms(octahedron, mub_grouping())
        for m, group in enumerate(mub_grouping()):
            for e, j in zip(a.povm_elements(m), group):
                v = octahedron.vectors[j]
                np.testing.assert_array_equal(
                    e, (2 / a.n_outcomes) * np.outer(v, v.conj()))

    def test_non_partition_rejected(self, octahedron):
        with pytest.raises(AssignmentError):
            assign_povms(octahedron, [[0, 1], [2, 3], [4, 4]])

    def test_unequal_blocks_rejected(self, octahedron):
        with pytest.raises(AssignmentError):
            assign_povms(octahedron, [[0, 1, 2], [3, 4], [5]])

    @pytest.mark.parametrize("grouping, match", [
        ([[0, 1], [2, 3], [4, 5.7]], "index 5.7 is not an integer"),
        ([[0, 1], [2, 3], [4, 5.0]], "index 5.0 is not an integer"),
        ([[0, 1], [2, 3], [4, None]], "index None is not an integer"),
        ([[0, 1], [2, 3], [4, True]], "index True is not an integer"),
        (5, "list of index lists"),
        ([0, 1, 2, 3, 4, 5], "list of index lists")])
    def test_non_integer_grouping_rejected(self, octahedron, grouping, match):
        with pytest.raises(AssignmentError, match=match):
            assign_povms(octahedron, grouping)

    def test_numpy_index_array_accepted(self, octahedron):
        a = assign_povms(octahedron, np.array(mub_grouping()))
        assert a.groups == ((0, 1), (2, 3), (4, 5))


class TestOutcomeProbabilities:
    def test_maximally_mixed_uniform(self, oct_single, oct_mub):
        for a in (oct_single, oct_mub):
            for m in range(a.n_povms):
                p = outcome_probabilities(a, m, maximally_mixed(2))
                np.testing.assert_allclose(p, 1 / a.n_outcomes, atol=1e-14)

    def test_pure_z_octahedron(self, oct_single):
        p = outcome_probabilities(oct_single, 0, pure_density([1, 0]))
        np.testing.assert_allclose(sorted(p), [0, 1/6, 1/6, 1/6, 1/6, 1/3],
                                   atol=1e-14)

    def test_mub_z_basis_diagonal(self, oct_mub):
        lam = 0.3
        rho = np.diag([1 - lam, lam]).astype(complex)
        p = outcome_probabilities(oct_mub, 2, rho)  # z-basis block
        np.testing.assert_allclose(sorted(p), [lam, 1 - lam], atol=1e-14)

    def test_normalization(self, oct_single, rng):
        for _ in range(20):
            p = outcome_probabilities(oct_single, 0, random_density(2, rng))
            assert abs(p.sum() - 1.0) < 1e-12 and np.all(p >= 0)

    def test_dimension_mismatch(self, oct_single):
        with pytest.raises(ValueError):
            outcome_probabilities(oct_single, 0, maximally_mixed(3))
