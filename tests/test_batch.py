"""The terminating root solver, its array form and the batched audit core,
each checked against an independent per-element or per-state path."""

import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
from closed_forms import (beta_parameters_direct, pure_density,
                          random_pure_state, upsilon_mp_float_floor,
                          upsilon_newton)

from design_uncertainty import (assign_povms, audit_state, audit_states,
                                bound_curves, bound_prior, bound_prop1,
                                bound_prop2, builtin_design, mub_grouping,
                                random_density, renyi_entropies,
                                state_independent_bound,
                                state_independent_cap, upsilon, upsilon_array)
from design_uncertainty.bounds import SAT_ATOL, beta_range
from design_uncertainty.cli import main
from design_uncertainty.designs import (all_outcome_probabilities,
                                        outcome_probabilities,
                                        outcome_probability_batch)
from design_uncertainty.entropy import renyi_entropy
from design_uncertainty.quantum import (complete_homogeneous,
                                        density_spectra, maximally_mixed,
                                        power_sums, sym_dim_inv)
from design_uncertainty.upsilon import (MAX_ITER, admissible_range,
                                        upsilon_nr1)

GRID_CASES = [(2, 3), (6, 3), (12, 5), (30, 5)]
ITER_LIMIT = 50
ARRAY_ITER_LIMIT = 10   # Newton from above in the excess variables


def linspace_grid(n, t, points=2000):
    return np.linspace(*admissible_range(n, t), points)


def floor_grid(n, t, points=500):
    """beta log-spaced from 1e-14 to 1 (relative) above the floor."""
    lo, hi = admissible_range(n, t)
    grid = lo * (1.0 + np.logspace(-14, 0, points))
    return grid[grid <= hi]


def coarse_grid(n, t):
    return linspace_grid(n, t, 200)


@functools.cache
def float_floor_roots(n, t, grid):
    """60-digit roots of the equation upsilon_array solves, on a grid."""
    with mpmath.workdps(60):
        return tuple(upsilon_mp_float_floor(n, t, b) for b in grid(n, t))


class TestStopRule:
    def test_two_float_cycle_terminates(self):
        # Newton in y and beta alternates between 0.1856262513955634 and a
        # float about 7 ulps away, which no step-size tolerance ends
        res = upsilon(6, 3, 0.028)
        assert res.iterations < ITER_LIMIT
        assert res.residual <= 1e-12
        assert abs(res.value - 0.1856262513955634) < 1e-14

    @pytest.mark.parametrize("n, t", GRID_CASES)
    @pytest.mark.parametrize("grid", [linspace_grid, floor_grid])
    def test_iterations_bounded(self, n, t, grid):
        betas = grid(n, t)
        scalar = max(upsilon_newton(n, t, b).iterations for b in betas)
        array = upsilon_array(n, t, betas).iterations.max()
        assert scalar <= ITER_LIMIT < MAX_ITER
        assert array <= ARRAY_ITER_LIMIT


class TestArraySolver:
    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_matches_scalar(self, n, t):
        betas = linspace_grid(n, t)
        res = upsilon_array(n, t, betas)
        ys = np.array([upsilon_newton(n, t, b).value for b in betas])
        assert np.all(np.abs(res.value - ys) <= 1e-15 * ys)
        assert np.all(res.residual <= 1e-12)

    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_near_floor_within_conditioning(self, n, t):
        # at the floor the root is double, so an error e in beta moves it
        # by about sqrt(e); in the excess variables the equation with the
        # float floor is well conditioned, and its root is met to 1e-15
        betas = floor_grid(n, t)
        res = upsilon_array(n, t, betas)
        roots = float_floor_roots(n, t, floor_grid)
        assert all(abs(mpmath.mpf(y) - root) <= 1e-15 * root
                   for y, root in zip(res.value, roots))
        assert np.all(res.residual <= 1e-12)

    @pytest.mark.parametrize("n, t", GRID_CASES)
    @pytest.mark.parametrize("grid", [coarse_grid, floor_grid])
    def test_never_below_root(self, n, t, grid):
        # a Y below the root would make -ln Y claim more entropy than the
        # maths backs; rounding may put it at most 2 ulp below
        ys = upsilon_array(n, t, grid(n, t)).value
        roots = float_floor_roots(n, t, grid)
        assert all(mpmath.mpf(y) >= root - 2 * np.spacing(float(root))
                   for y, root in zip(ys, roots))

    def test_shape_and_corner_cases(self):
        lo, hi = admissible_range(6, 3)
        betas = np.array([[lo, 0.028], [0.05, hi]])
        res = upsilon_array(6, 3, betas)
        assert res.value.shape == res.iterations.shape == betas.shape
        assert res.value[0, 0] == 1 / 6 and res.iterations[0, 0] == 0
        assert res.value[1, 1] == 1.0 and res.residual[1, 1] == 0.0
        assert res.value[0, 1] == pytest.approx(
            upsilon_newton(6, 3, 0.028).value, rel=1e-15)

    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_zero_d_query_matches_batch(self, n, t):
        # upsilon is the view of upsilon_array on a 0-d array, and a query
        # alone gives the same floats as the same beta inside a batch
        betas = np.concatenate([linspace_grid(n, t, 40), floor_grid(n, t, 10)])
        batch = upsilon_array(n, t, betas)
        for i, beta in enumerate(betas):
            alone = upsilon_array(n, t, beta)
            assert alone.value.shape == ()
            view = upsilon(n, t, beta)
            assert type(view.value) is float
            assert type(view.residual) is float
            assert type(view.iterations) is int
            for one in (alone, view):
                assert one.value == batch.value[i]
                assert one.residual == batch.residual[i]
                assert one.iterations == batch.iterations[i]

    def test_empty(self):
        assert upsilon_array(6, 3, []).value.shape == (0,)

    @pytest.mark.parametrize("bad", [1 / 40, 1.01, math.nan])
    def test_rejects_inadmissible(self, bad):
        with pytest.raises(ValueError):
            upsilon_array(6, 3, [0.05, bad])
        with pytest.raises(ValueError):
            upsilon(6, 3, bad)

    @pytest.mark.parametrize("n, t", GRID_CASES)
    def test_one_step_array(self, n, t):
        # bound_curves' Newton-step column against the scalar step: a
        # relative 1e-15 on the step is an absolute 1e-15 on its -ln
        betas = linspace_grid(n, t, 200)
        got = bound_curves(n, t, betas, ()).bound_prop1_nr
        ref = np.array([-math.log(upsilon_nr1(n, t, b)) for b in betas])
        assert np.all(np.abs(got - ref) <= 1e-15)


# (n, d, t) of every built-in: octahedron single and MUB, icosahedron,
# icosidodecahedron
BUILTIN_BOUNDS = [(6, 2, 3), (2, 2, 3), (12, 2, 5), (30, 2, 5)]


class TestBoundCurves:
    """bound_curves is the one evaluation of the bounds; every other
    function that gives a bound is its view and gives the same float."""

    @pytest.mark.parametrize("n, d, t", BUILTIN_BOUNDS)
    def test_matches_scalar_bounds(self, n, d, t):
        betas = np.linspace(*beta_range(n, d, t), 101)
        alphas = [t, 10.0, math.inf]
        curves = bound_curves(n, t, betas, alphas)
        for i, b in enumerate(betas):
            assert curves.bound_prop1[i] == bound_prop1(n, t, b)
            for k, alpha in enumerate(alphas):
                assert curves.bound_prior[k][i] \
                    == bound_prior(n, t, b, alpha)
                assert curves.bound_prop2[k][i] \
                    == bound_prop2(n, t, alpha, b)

    @pytest.mark.parametrize("n, d, t", BUILTIN_BOUNDS)
    def test_state_independent_views(self, n, d, t):
        hi = beta_range(n, d, t)[1]
        alphas = [t, 10.0, math.inf]
        curves = bound_curves(n, t, [hi], alphas)
        assert state_independent_cap(n, d, t) == curves.cap[0]
        for k, alpha in enumerate(alphas):
            assert state_independent_bound(n, d, t, alpha) \
                == curves.bound_prop2[k][0]

    @pytest.mark.parametrize("name, grouping", [
        ("octahedron", "single"), ("octahedron", "mub"),
        ("icosahedron", "single"), ("icosidodecahedron", "single")])
    def test_audit_fields(self, name, grouping, rng):
        design = builtin_design(name)
        assignment = assign_povms(
            design, mub_grouping() if grouping == "mub" else grouping)
        alphas = [design.strength, 10.0, math.inf]
        batch = audit_states(assignment, batch_states(design.dimension, rng),
                             alphas)
        curves = bound_curves(assignment.n_outcomes, design.strength,
                              batch.beta_n, alphas)
        np.testing.assert_array_equal(batch.max_prob_cap, curves.cap)
        np.testing.assert_array_equal(batch.bound_prop1, curves.bound_prop1)
        np.testing.assert_array_equal(batch.bound_prop1_nr,
                                      curves.bound_prop1_nr)
        for k in range(len(alphas)):
            np.testing.assert_array_equal(batch.bound_prior[:, k],
                                          curves.bound_prior[k])
            np.testing.assert_array_equal(batch.bound_prop2[:, k],
                                          curves.bound_prop2[k])

    def test_alpha_below_t_rejected(self):
        with pytest.raises(ValueError):
            bound_curves(6, 3, [1 / 20], [2])


def reference_audit(assignment, rho, alphas, s=None):
    """Oracle: the per-state audit, one scalar query per quantity, with
    beta_n and beta from the tensor contraction and the roots from the
    scalar reference solver; the per-alpha entries are lists in the order
    of alphas."""
    t = assignment.design.strength if s is None else s
    n = assignment.n_outcomes
    bn, bk = beta_parameters_direct(assignment, rho, t)
    probs = all_outcome_probabilities(assignment, rho)
    y = upsilon_newton(n, t, bn).value
    y_m = [upsilon_newton(n, t, float(np.sum(row**t))).value
           for row in probs]
    actual = [float(np.mean([renyi_entropy(row, alpha) for row in probs]))
              for alpha in alphas]
    prior = [-math.log(bn) / t if math.isinf(alpha) else
             alpha * math.log(bn) / (t * (1 - alpha)) for alpha in alphas]
    prop2 = [-math.log(y) if math.isinf(alpha) else
             -((alpha - t) * math.log(y) + math.log(bn)) / (alpha - 1)
             for alpha in alphas]
    # bound_prop1 = -ln y is valid at every alpha
    satisfied = [a >= max(b, -math.log(y), c) - 1e-10
                 for a, b, c in zip(actual, prior, prop2)]
    max_prob = float(np.mean(probs.max(axis=1)))
    min_ent = np.mean([renyi_entropy(row, math.inf) for row in probs])
    return {
        "beta_n": bn, "beta": bk,
        "beta_m": [float(np.sum(row**t)) for row in probs],
        "purity": float(np.real(np.trace(rho @ rho))),
        "actual": actual, "bound_prior": prior, "bound_prop1": -math.log(y),
        "bound_prop1_nr": -math.log(upsilon_nr1(n, t, bn)),
        "bound_prop2": prop2,
        "satisfied": satisfied,
        "all_satisfied": all(satisfied) and max_prob <= y + 1e-10,
        "max_prob_actual": max_prob,
        "max_prob_cap": y,
        "jensen_ok": float(np.mean(y_m)) <= y + 1e-10,
        "saturated": abs(min_ent + math.log(y)) < SAT_ATOL,
    }


def batch_states(d, rng, count=60):
    states = [maximally_mixed(d), pure_density(np.eye(d)[0])]
    states += [random_density(d, rng) for _ in range(count)]
    states += [pure_density(random_pure_state(d, rng)) for _ in range(5)]
    return np.stack(states)


AUDIT_CASES = [("octahedron", "single", [3, 6, math.inf], None),
               ("octahedron", "mub", [3, 6, math.inf], None),
               ("icosahedron", "single", [2, 4, math.inf], 2)]


class TestAuditStates:
    @pytest.mark.parametrize("name, grouping, alphas, s", AUDIT_CASES)
    def test_matches_per_state_oracle(self, name, grouping, alphas, s, rng):
        design = builtin_design(name)
        assignment = assign_povms(
            design, mub_grouping() if grouping == "mub" else grouping)
        rhos = batch_states(design.dimension, rng)
        batch = audit_states(assignment, rhos, alphas, s=s)
        assert batch.actual.shape == (len(rhos), len(alphas))
        for i, rho in enumerate(rhos):
            ref = reference_audit(assignment, rho, alphas, s)
            for key in ("beta_n", "beta", "beta_m", "purity", "actual",
                        "bound_prior", "bound_prop1", "bound_prop1_nr",
                        "bound_prop2", "max_prob_actual", "max_prob_cap"):
                assert getattr(batch, key)[i] == pytest.approx(
                    ref[key], abs=1e-12), key
            for key in ("satisfied", "all_satisfied", "jensen_ok",
                        "saturated"):
                assert getattr(batch, key)[i].tolist() == ref[key], key
        assert batch.saturated[0] and batch.all_satisfied.all()

    @pytest.mark.parametrize("name, grouping, alphas, s", AUDIT_CASES)
    def test_one_solve_matches_two(self, name, grouping, alphas, s, rng):
        # Y(beta_n) and the Jensen terms Y(beta_m) come from one array
        # solve; two separate solves must give the same floats
        design = builtin_design(name)
        assignment = assign_povms(
            design, mub_grouping() if grouping == "mub" else grouping)
        t = design.strength if s is None else s
        n = assignment.n_outcomes
        batch = audit_states(assignment, batch_states(design.dimension, rng),
                             alphas, s=s)
        y = upsilon_array(n, t, batch.beta_n).value
        y_m = upsilon_array(n, t, batch.beta_m).value
        np.testing.assert_array_equal(batch.max_prob_cap, y)
        np.testing.assert_array_equal(batch.bound_prop1, -np.log(y))
        np.testing.assert_array_equal(batch.jensen_ok,
                                      np.mean(y_m, axis=-1) <= y + 1e-10)

    def test_audit_state_is_a_view(self, oct_mub, rng):
        rhos = batch_states(2, rng, count=5)
        batch = audit_states(oct_mub, rhos, [3, math.inf])
        for i, rho in enumerate(rhos):
            one = audit_state(oct_mub, rho, [3, math.inf])
            assert isinstance(one, type(batch)) and one.alphas == batch.alphas
            for field in dataclasses.fields(batch):
                have, full = getattr(one, field.name), getattr(batch, field.name)
                if not isinstance(full, np.ndarray):
                    assert have == full, field.name
                    continue
                assert have.shape == (1,) + full.shape[1:], field.name
                assert have[0] == pytest.approx(full[i], rel=1e-15), field.name
            assert one.beta_n[0] == batch.beta_n[i]

    def test_prop1_checked_in_violation_count(self, oct_single, rng):
        batch = audit_states(oct_single, batch_states(2, rng, count=3),
                             [3, math.inf])
        assert batch.all_satisfied.all()
        lifted = dataclasses.replace(batch,
                                     bound_prop1=batch.actual.max(axis=1) + 0.1)
        assert not lifted.satisfied.any()
        assert not lifted.all_satisfied.any()

    def test_no_alphas(self, oct_single, rng):
        rhos = batch_states(2, rng, count=3)
        batch = audit_states(oct_single, rhos, [])
        assert batch.actual.shape == (len(rhos), 0)
        assert batch.all_satisfied.all()

    @pytest.mark.parametrize("alphas", [[], [3, 6, math.inf]])
    def test_empty_stack(self, oct_mub, alphas):
        batch = audit_states(oct_mub, np.zeros((0, 2, 2)), alphas)
        a = len(alphas)
        for field in dataclasses.fields(batch):
            value = getattr(batch, field.name)
            if isinstance(value, np.ndarray):
                assert value.shape[0] == 0, field.name
        assert batch.beta_n.shape == batch.bound_prop1.shape == (0,)
        assert batch.actual.shape == batch.bound_prop2.shape == (0, a)
        assert batch.satisfied.shape == (0, a)
        assert batch.beta_m.shape == (0, oct_mub.n_povms)
        assert batch.all_satisfied.shape == batch.saturated.shape == (0,)

    def test_rejects_bad_shapes_and_alphas(self, oct_single):
        with pytest.raises(ValueError):
            audit_states(oct_single, maximally_mixed(2), [3])
        with pytest.raises(ValueError):
            audit_states(oct_single, maximally_mixed(2)[None], [2])
        with pytest.raises(ValueError, match="strength"):
            audit_states(oct_single, maximally_mixed(2)[None], [5], s=5)


def unfused_audit(assignment, rhos, alphas, s):
    """The AuditBatch arrays computed one quantity at a time: one
    renyi_entropies call (so one check of the distributions) per alpha and
    one for the min-entropy, the row maxima taken apart, and the roots and
    Newton-step bound from separate checked solves."""
    design = assignment.design
    t = design.strength if s is None else s
    d, n = design.dimension, assignment.n_outcomes
    p = power_sums(density_spectra(rhos), t)
    scale = d**t * sym_dim_inv(d, t) * complete_homogeneous(p, t)
    bn, bk = float(n) ** (1 - t) * scale, float(design.size) ** (1 - t) * scale
    probs = outcome_probability_batch(assignment, rhos)
    beta_m = np.sum(probs**t, axis=-1)
    y = upsilon_array(n, t, bn).value
    y_m = upsilon_array(n, t, beta_m).value
    prop1 = -np.log(y)
    log_bn = np.log(bn)

    def per_alpha(column):
        cols = [column(alpha) for alpha in alphas]
        return np.stack(cols, axis=-1) if cols else np.empty((len(bn), 0))

    min_ent = np.mean(renyi_entropies(probs, math.inf), axis=-1)
    return {
        "beta_n": bn, "beta": bk, "beta_m": beta_m, "purity": p[:, 1],
        "actual": per_alpha(
            lambda a: np.mean(renyi_entropies(probs, a), axis=-1)),
        "bound_prior": per_alpha(lambda a: log_bn / (t * (1.0 / a - 1.0))),
        "bound_prop1": prop1,
        "bound_prop1_nr": bound_curves(n, t, bn, ()).bound_prop1_nr,
        "bound_prop2": per_alpha(
            lambda a: prop1 if math.isinf(a) else
            (a - t) / (a - 1.0) * prop1 - log_bn / (a - 1.0)),
        "max_prob_actual": np.mean(probs.max(axis=-1), axis=-1),
        "max_prob_cap": y,
        "jensen_ok": np.mean(y_m, axis=-1) <= y + 1e-10,
        "saturated": np.abs(min_ent - prop1) < SAT_ATOL,
    }


def near_floor_states(count=60):
    """rho = (1 - eps) I/2 + eps |0><0|, eps log-spaced in [1e-16, 1e-6]:
    beta_n just above the floor, where the root is double."""
    return np.stack([(1.0 - eps) * maximally_mixed(2)
                     + eps * pure_density(np.eye(2)[0])
                     for eps in np.logspace(-16, -6, count)])


class TestFusedAudit:
    """audit_states checks the distributions once, takes their row maxima
    once and checks each beta array once; every array must be the float
    the one-quantity-at-a-time path gives."""

    @pytest.mark.parametrize("name, grouping, alphas, s", AUDIT_CASES + [
        ("octahedron", "single", [3, 4.5, 40, math.inf], None),
        ("octahedron", "mub", [], None)])
    @pytest.mark.parametrize("states", ["random", "near_floor"])
    def test_arrays_equal_unfused(self, name, grouping, alphas, s, states,
                                  rng):
        design = builtin_design(name)
        assignment = assign_povms(
            design, mub_grouping() if grouping == "mub" else grouping)
        rhos = (batch_states(design.dimension, rng) if states == "random"
                else near_floor_states())
        batch = audit_states(assignment, rhos, alphas, s=s)
        ref = unfused_audit(assignment, rhos, alphas, s)
        for field in dataclasses.fields(batch):
            have = getattr(batch, field.name)
            if isinstance(have, np.ndarray):
                want = ref.pop(field.name)
                assert have.shape == want.shape, field.name
                assert have.dtype == want.dtype, field.name
                assert (have == want).all(), field.name
        assert ref == {}

    @pytest.mark.parametrize("alpha", [0.5, 1, 3, math.inf])
    @pytest.mark.parametrize("bad, message", [
        ([0.5, 0.6, -0.1], "negative or NaN probability"),
        ([0.5, math.nan, 0.5], "negative or NaN probability"),
        ([0.5, 0.2, 0.2], "probabilities do not sum to 1")])
    def test_bad_distribution_message(self, alpha, bad, message):
        p = np.array([[1 / 3, 1 / 3, 1 / 3], bad])
        with pytest.raises(ValueError) as info:
            renyi_entropies(p, alpha)
        assert str(info.value) == message


class TestBatchedLayers:
    def test_probabilities_match_per_povm_path(self, oct_mub, rng):
        rhos = batch_states(2, rng, count=10)
        probs = outcome_probability_batch(oct_mub, rhos)
        for i, rho in enumerate(rhos):
            for m in range(oct_mub.n_povms):
                assert probs[i, m] == pytest.approx(
                    outcome_probabilities(oct_mub, m, rho), abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1, 2, 3, math.inf])
    def test_entropies_match_one_at_a_time(self, alpha, rng):
        p = rng.dirichlet(np.ones(7), size=(4, 3))
        p[0, 0, :3] = 0.0
        p[0, 0] /= p[0, 0].sum()
        got = renyi_entropies(p, alpha)
        assert got.shape == (4, 3)
        for idx in np.ndindex(4, 3):
            assert got[idx] == pytest.approx(renyi_entropy(p[idx], alpha),
                                             abs=1e-14)


def audit_stdout_oracle(design_name, grouping, samples, seed, alphas, s=None):
    """cmd_audit's stdout from states drawn one at a time."""
    design = builtin_design(design_name)
    assignment = assign_povms(
        design, mub_grouping() if grouping == "mub" else grouping)
    t = design.strength if s is None else s
    rng = np.random.default_rng(seed)
    states = [maximally_mixed(design.dimension)]
    states += [random_density(design.dimension, rng) for _ in range(samples)]
    batch = audit_states(assignment, np.stack(states),
                         [a if math.isinf(a) else max(a, t) for a in alphas],
                         s=t)
    worst = float(np.min(batch.actual - batch.bound_prop2, initial=math.inf))
    return (f"samples: {samples} (+ maximally mixed)  seed: {seed}\n"
            f"violations: {int(np.count_nonzero(~batch.all_satisfied))}\n"
            f"saturation events: {int(np.count_nonzero(batch.saturated))}\n"
            f"worst entropy margin: {worst:.12g}\n")


class TestAuditCommand:
    @pytest.mark.parametrize("name, grouping, alphas, s", [
        ("octahedron", "single", [3, 6, math.inf], None),
        ("octahedron", "mub", [3, 6, math.inf], None),
        ("icosahedron", "single", [2, 4, math.inf], 2),
        ("octahedron", "single", [math.inf], None)])
    @pytest.mark.parametrize("seed", [1, 7, 4057])
    def test_stdout_matches_per_state_draws(self, name, grouping, alphas, s,
                                            seed, capsys):
        argv = ["audit", "--design", name, "--grouping", grouping,
                "--samples", "300", "--seed", str(seed),
                "--alphas", ",".join("inf" if math.isinf(a) else str(a)
                                     for a in alphas)]
        if s is not None:
            argv += ["-s", str(s)]
        assert main(argv) == 0
        assert capsys.readouterr().out == audit_stdout_oracle(
            name, grouping, 300, seed, alphas, s)

    def test_no_samples(self, capsys):
        assert main(["audit", "--design", "octahedron", "--samples", "0"]) == 0
        assert capsys.readouterr().out == audit_stdout_oracle(
            "octahedron", "single", 0, 0, [math.inf])

    def test_negative_samples_exit_2(self, capsys):
        assert main(["audit", "--design", "octahedron",
                     "--samples", "-1"]) == 2
        assert "error:" in capsys.readouterr().err
