"""Typed errors for a false design strength and an uncertified root, the
CLI's exit code 2 for both, for NaN or -inf alphas and for a steering
--alpha that is not one value, state errors for non-density states in an
audit, the s <= t guard of sweep, bound_prop1 in the per-alpha satisfied
check, the strength check of the steering inputs, verify_design's
input checks and JSON files nested too deeply to read."""

import contextlib
import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from design_uncertainty import (AssignmentError, DesignLoadError,
                                DesignStrengthError, QuantumDesign,
                                UncertifiedRootError, assign_povms,
                                audit_state, audit_states, check_strength,
                                landau_pollak_cap, matched_alice_povms,
                                load_design, random_density, save_design,
                                steering_check_maxprob, steering_check_renyi,
                                upsilon, upsilon_array, verify_design)
from design_uncertainty import cli, designs
from design_uncertainty.bounds import _check_index_identity
from design_uncertainty.cli import main
from design_uncertainty.quantum import maximally_mixed

# the package re-exports the function upsilon under the module's name
upsilon_module = importlib.import_module("design_uncertainty.upsilon")


@pytest.fixture()
def fake_5_design(octahedron):
    """The octahedron (a 3-design) claiming strength 5."""
    return QuantumDesign(dimension=2, strength=5, vectors=octahedron.vectors)


class TestDesignStrengthError:
    def test_is_a_value_error(self):
        assert issubclass(DesignStrengthError, ValueError)

    def test_false_strength_detected(self, fake_5_design, rng):
        single = assign_povms(fake_5_design, "single")
        # the frame potential rejects the claim before any state is read;
        # the index identity alone holds on I/2 for any strength
        with pytest.raises(DesignStrengthError, match="not a 5-design"):
            audit_state(single, maximally_mixed(2), (), 5)
        rho = random_density(2, rng)
        with pytest.raises(DesignStrengthError, match="not a 5-design"):
            audit_state(single, rho, (), 5)
        with pytest.raises(DesignStrengthError):
            audit_states(single, rho[None], [math.inf])
        with pytest.raises(DesignStrengthError, match="not a 5-design"):
            landau_pollak_cap(single, rho, 5)

    def test_cli_exit_2(self, fake_5_design, tmp_path, capsys):
        path = tmp_path / "fake5.json"
        save_design(fake_5_design, path)
        assert main(["audit", "--design", str(path), "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "frame-potential residual" in captured.err
        assert "Traceback" not in captured.err

    def test_index_identity_message(self, fake_5_design):
        # the per-state guard behind the frame gate, called directly
        single = assign_povms(fake_5_design, "single")
        _check_index_identity(single, np.array([[0.25]]), np.array([0.25]), 5)
        with pytest.raises(DesignStrengthError,
                           match="identity violated.*not a 5-design"):
            _check_index_identity(single, np.array([[0.25]]),
                                  np.array([0.5]), 5)

    @pytest.mark.parametrize("strength", [21, 1023])
    def test_high_claimed_strength_exit_2(self, octahedron, tmp_path, capsys,
                                          strength):
        # sum p_j^t < 1e-10 from t = 21, below the index identity's
        # absolute tolerance; 2^t overflows a float from t = 1023
        path = tmp_path / "fake.json"
        save_design(QuantumDesign(dimension=2, strength=strength,
                                  vectors=octahedron.vectors), path)
        assert main(["audit", "--design", str(path), "--samples", "200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: the design is not a {strength}-design" in captured.err

    def test_huge_claimed_strength_stops_at_first_failing_order(
            self, octahedron, tmp_path, capsys, monkeypatch):
        # the octahedron fails at s = 4, so no order above 4 is evaluated
        path = tmp_path / "fake.json"
        save_design(QuantumDesign(dimension=2, strength=10**6,
                                  vectors=octahedron.vectors), path)
        calls = []
        original = designs.frame_potential

        def counting(design, s):
            calls.append(s)
            return original(design, s)

        monkeypatch.setattr(designs, "frame_potential", counting)
        assert main(["audit", "--design", str(path), "--samples", "5"]) == 2
        assert len(calls) <= 4
        err = capsys.readouterr().err
        assert "error: the design is not a 1000000-design" in err
        assert "at s=4" in err

    def test_strength_above_5_is_checked(self, octahedron, tmp_path, capsys):
        # orders above 5 reach the index-of-coincidence check
        path = tmp_path / "fake6.json"
        save_design(QuantumDesign(dimension=2, strength=6,
                                  vectors=octahedron.vectors), path)
        assert main(["audit", "--design", str(path), "--samples", "5",
                     "--alphas", "6,inf"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not a 6-design" in err


class TestAuditStatesRejectsNonDensity:
    """A bad state is a state error, not a false design strength."""

    @pytest.mark.parametrize("rho, match", [
        (np.diag([1.2, -0.2]), "negative eigenvalue"),
        (np.array([[0.5, 0.3], [0.1, 0.5]]), "not Hermitian"),
        (np.full((2, 2), math.nan), "non-finite"),
        (np.eye(2), "trace 2"),
    ])
    def test_value_error_names_the_state_fault(self, oct_single, rho, match):
        stack = np.stack([maximally_mixed(2), rho])
        with pytest.raises(ValueError, match=match) as exc:
            audit_states(oct_single, stack, [3.0, math.inf])
        assert not isinstance(exc.value, DesignStrengthError)


class TestUncertifiedRootError:
    def test_is_a_runtime_error(self):
        assert issubclass(UncertifiedRootError, RuntimeError)

    def test_raised_when_iterations_run_out(self, monkeypatch):
        monkeypatch.setattr(upsilon_module, "MAX_ITER", 1)
        with pytest.raises(UncertifiedRootError):
            upsilon(6, 3, 0.05)
        with pytest.raises(UncertifiedRootError):
            upsilon_array(6, 3, [0.04, 0.05])

    def test_cli_exit_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(upsilon_module, "MAX_ITER", 1)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--design", "octahedron", "--points", "20",
                     "--output", str(out)]) == 2
        assert "error: Newton failed" in capsys.readouterr().err


class TestSweepOrderGuard:
    @pytest.mark.parametrize("s", ["7", "4", "1"])
    def test_rejects_s_outside_2_to_t(self, s, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--design", "octahedron", "-s", s,
                     "--output", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_accepts_s_up_to_t(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--design", "icosahedron", "-s", "3",
                     "--points", "10", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 11


class TestSatisfiedUsesProp1:
    @staticmethod
    def batch(oct_single, actual):
        """A one-state, one-alpha audit with the given actual entropy and
        bounds prior 0.5, prop1 1.2, prop1_nr 1.1, prop2 0.9."""
        return dataclasses.replace(
            audit_state(oct_single, maximally_mixed(2), [math.inf]),
            actual=np.array([[actual]]), bound_prior=np.array([[0.5]]),
            bound_prop1=np.array([1.2]), bound_prop1_nr=np.array([1.1]),
            bound_prop2=np.array([[0.9]]))

    def test_prop1_above_actual_is_a_violation(self, oct_single):
        batch = self.batch(oct_single, 1.0)
        assert not batch.satisfied[0, 0]
        assert not batch.all_satisfied[0]

    def test_all_bounds_below_actual(self, oct_single):
        batch = self.batch(oct_single, 1.3)
        assert batch.satisfied[0, 0]
        assert batch.all_satisfied[0]


def write_isotropic_state(path, v):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    mat = v * np.outer(phi, phi) + (1 - v) * np.eye(4) / 4
    path.write_text(json.dumps({"dims": [2, 2], "matrix": [
        [[float(x), 0.0] for x in row] for row in mat]}))


class TestNonFiniteAlpha:
    """NaN fails alpha >= t and -inf is not +inf: both exit 2."""

    def test_audit_nan(self, capsys):
        assert main(["audit", "--design", "octahedron", "--samples", "5",
                     "--alphas", "nan"]) == 2
        captured = capsys.readouterr()
        assert "error: bound needs alpha >= t" in captured.err
        assert "violations" not in captured.out

    @pytest.mark.parametrize("alpha", ["nan", "-inf"])
    def test_sweep(self, alpha, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--design", "octahedron", "--points", "5",
                     f"--alphas={alpha}", "--output", str(out)]) == 2
        assert "error: bound needs alpha >= t" in capsys.readouterr().err
        assert not out.exists()

    def test_steering_nan_on_separable_state(self, tmp_path, capsys):
        path = tmp_path / "iso.json"
        write_isotropic_state(path, 0.3)
        assert main(["steering", "--state", str(path), "--design",
                     "octahedron", "--alpha", "nan"]) == 2
        captured = capsys.readouterr()
        assert "error: bound needs alpha >= t" in captured.err
        assert "witnessed" not in captured.out

    @pytest.mark.parametrize("alpha", ["", "3,5"])
    def test_steering_takes_one_alpha(self, alpha, tmp_path, capsys):
        path = tmp_path / "iso.json"
        write_isotropic_state(path, 0.3)
        assert main(["steering", "--state", str(path), "--design",
                     "octahedron", f"--alpha={alpha}"]) == 2
        assert "error: --alpha takes one value" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [math.nan, -math.inf])
    def test_audit_states(self, alpha, oct_single):
        with pytest.raises(ValueError, match="alpha >= t"):
            audit_states(oct_single, maximally_mixed(2)[None], [alpha])


class TestSteeringChecksStrength:
    """Both steering right-hand sides assume Bob's claimed strength, so a
    false claim must fail as it does in audit and sweep."""

    def test_library_raises(self, fake_5_design):
        mub = assign_povms(fake_5_design, [[0, 1], [2, 3], [4, 5]])
        alice = matched_alice_povms(mub)
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(DesignStrengthError, match="not a 5-design"):
            steering_check_renyi(rho, (2, 2), alice, mub, math.inf)
        with pytest.raises(DesignStrengthError, match="not a 5-design"):
            steering_check_maxprob(rho, (2, 2), alice, mub)

    def test_cli_exit_2(self, fake_5_design, tmp_path, capsys):
        design, state = tmp_path / "fake5.json", tmp_path / "iso.json"
        save_design(fake_5_design, design)
        write_isotropic_state(state, 0.55)
        assert main(["steering", "--state", str(state), "--design",
                     str(design), "--grouping", "mub"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: the design is not a 5-design: frame-potential "
                "residual 0.00833333333333 at s=4 exceeds 1e-10") in captured.err

    def test_check_strength_message_and_orders(self, fake_5_design):
        with pytest.raises(DesignStrengthError,
                           match="not a 5-design.* at s=4 exceeds 1e-10"):
            check_strength(fake_5_design, 5)
        with pytest.raises(DesignStrengthError, match="not a 4-design"):
            check_strength(fake_5_design, 4)
        check_strength(fake_5_design, 3)

    @pytest.mark.parametrize("s", [7, 4, 0, -3])
    def test_check_strength_rejects_s_outside_1_to_t(self, octahedron, s):
        # verify_design(octahedron, 7) fails, so a silent return would lie
        with pytest.raises(ValueError, match=r"s must lie in 1\.\.3"):
            check_strength(octahedron, s)
        check_strength(octahedron, 1)
        check_strength(octahedron, 3)

    def test_residuals_computed_once_per_design(self, fake_5_design,
                                                monkeypatch):
        calls = []
        original = designs.frame_potential

        def counting(design, s):
            calls.append(s)
            return original(design, s)

        monkeypatch.setattr(designs, "frame_potential", counting)
        fresh = QuantumDesign(dimension=2, strength=5,
                              vectors=fake_5_design.vectors)
        for s in (3, 5, 5):
            with contextlib.suppress(DesignStrengthError):
                check_strength(fresh, s)
        # each order once, and none past the first failing order, s = 4
        assert calls == [1, 2, 3, 4]
        assert fresh.frame_residual(4) == pytest.approx(1 / 120, abs=1e-12)
        assert calls == [1, 2, 3, 4]


NESTING = 100_000


class TestDeeplyNestedJson:
    """JSON nested deeper than the recursion limit is a malformed file:
    each loader raises its typed error, and the CLI exits 2."""

    def nested(self):
        return "[" * NESTING + "]" * NESTING

    def test_design_file(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text('{"dimension": 2, "strength": 3, "vectors": '
                        + self.nested() + "}")
        with pytest.raises(DesignLoadError, match="cannot read design file"):
            load_design(path)
        assert main(["verify", "--design", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read design file")

    def test_grouping_file(self, octahedron, tmp_path, capsys):
        path = tmp_path / "grouping.json"
        path.write_text(self.nested())
        with pytest.raises(AssignmentError, match="cannot read grouping"):
            cli._get_assignment(octahedron, str(path))
        assert main(["audit", "--design", "octahedron", "--grouping",
                     str(path), "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read grouping file")

    def test_state_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"dims": [2, 2], "matrix": ' + self.nested() + "}")
        with pytest.raises(ValueError, match="malformed state file"):
            cli._load_bipartite_state(path)
        assert main(["steering", "--state", str(path), "--design",
                     "octahedron"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed state file")


class TestVerifyInputs:
    @pytest.mark.parametrize("t", [0, -2])
    def test_t_below_1_rejected(self, octahedron, t, capsys):
        with pytest.raises(ValueError, match="t must be >= 1"):
            verify_design(octahedron, t)
        assert main(["verify", "--design", "octahedron", "--t", str(t)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: t must be >= 1" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-10"])
    def test_bad_tol_rejected(self, octahedron, tol, capsys):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            verify_design(octahedron, 3, tol=float(tol))
        assert main(["verify", "--design", "octahedron",
                     f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: tol must be" in captured.err

    def test_zero_tol_and_t_1_accepted(self, octahedron):
        assert verify_design(octahedron, 1, tol=0.0).strength == 1
