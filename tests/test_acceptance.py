"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line with
its timing, so a verbose run doubles as a sign-off report.
"""

import math
import time

import numpy as np
import pytest
from closed_forms import (mub_min_bound, sym_moment_direct,
                          upsilon_closed_t2, upsilon_closed_t3)

from design_uncertainty import (assign_povms, audit_state, audit_states,
                                bound_curves, bound_prior, bound_prop1,
                                builtin_design, matched_alice_povms,
                                mub_grouping, random_densities, random_density,
                                renyi_entropies, steering_check_maxprob,
                                steering_check_renyi, upsilon, upsilon_array,
                                verify_design)
from design_uncertainty.bounds import beta_range
from design_uncertainty.designs import outcome_probabilities
from design_uncertainty.quantum import (complete_homogeneous, maximally_mixed,
                                        power_moments, sym_dim_inv)
from design_uncertainty.upsilon import admissible_range

BUILTINS = [("octahedron", 3), ("icosahedron", 5), ("icosidodecahedron", 5)]


def moment(rho, s):
    """h_s of one state by the power-sum recursion."""
    return complete_homogeneous(power_moments(rho, s), s)


def report(number, label, t0):
    print(f"\n[acceptance {number:02d}] PASS  {label}  "
          f"({time.perf_counter() - t0:.2f} s)")


def test_01_design_verification():
    t0 = time.perf_counter()
    for name, t in BUILTINS:
        design = builtin_design(name)
        assert verify_design(design, t, tol=1e-10).passes
    rep = verify_design(builtin_design("octahedron"), 4)
    assert not rep.passes
    assert rep.residuals[4] == pytest.approx(1 / 120, abs=1e-12)
    assert time.perf_counter() - t0 < 5.0
    report(1, "design verification (t+1 failure)", t0)


def test_02_moment_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(100):
            rho = random_density(d, rng)
            for s in range(2, 6):
                assert abs(moment(rho, s)
                           - sym_moment_direct(rho, s)) < 1e-10
    # regression: printed low-order expansions in power moments
    rho = random_density(3, rng)
    m = power_moments(rho, 4)
    assert moment(rho, 2) == pytest.approx((1 + m[1]) / 2, abs=1e-12)
    assert moment(rho, 3) == pytest.approx(
        (1 + 3 * m[1] + 2 * m[2]) / 6, abs=1e-12)
    assert moment(rho, 4) == pytest.approx(
        (1 + 6 * m[1] + 3 * m[1] ** 2 + 8 * m[2] + 6 * m[3]) / 24, abs=1e-12)
    report(2, "moment recursion vs tensor-projector oracle", t0)


def test_03_index_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for name, t in BUILTINS:
        assignment = assign_povms(builtin_design(name), "single")
        k = assignment.n_outcomes
        d = assignment.design.dimension
        for _ in range(100):
            rho = random_density(d, rng)
            probs = outcome_probabilities(assignment, 0, rho)
            for s in range(2, t + 1):
                lhs = float(np.sum(probs ** s))
                rhs = k * k ** (-s) * d ** s * sym_dim_inv(d, s) \
                    * moment(rho, s)
                assert abs(lhs - rhs) < 1e-10
    report(3, "index identity for all built-ins, s <= t", t0)


def test_04_saturation_at_maximally_mixed():
    t0 = time.perf_counter()
    for name, t in BUILTINS:
        assignment = assign_povms(builtin_design(name), "single")
        k = assignment.n_outcomes
        rho = maximally_mixed(assignment.design.dimension)
        beta = audit_state(assignment, rho, (), t).beta[0]
        assert bound_prop1(k, t, beta) == pytest.approx(math.log(k), abs=1e-9)
        probs = outcome_probabilities(assignment, 0, rho)
        assert renyi_entropies(probs, math.inf) == pytest.approx(
            math.log(k), abs=1e-9)
    report(4, "min-entropy saturation ln K at the maximally mixed state", t0)


def test_05_floor_ratios():
    t0 = time.perf_counter()
    for (name, t), ratio in zip(BUILTINS, (1.5, 1.25, 1.25)):
        k = builtin_design(name).size
        beta = float(k) ** (1 - t)
        got = bound_prop1(k, t, beta) / bound_prior(k, t, beta, math.inf)
        assert got == pytest.approx(ratio, abs=1e-9)
    report(5, "left-endpoint bound ratios 1.5 / 1.25 / 1.25", t0)


def test_06_pure_state_improvement_scale():
    t0 = time.perf_counter()
    cases = [(6, 2, 3, "single", 0.07, 0.02),
             (12, 2, 5, "single", 0.01, 0.005),
             (2, 2, 3, "mub", 0.03, 0.01)]
    for n, d, t, _, centre, tol in cases:
        beta = beta_range(n, d, t)[1]
        rel = bound_prop1(n, t, beta) / bound_prior(n, t, beta, math.inf) - 1
        assert abs(rel - centre) < tol
    report(6, "pure-state improvement scales 7% / 1% / 3%", t0)


def test_07_mub_closed_form_equivalence():
    t0 = time.perf_counter()
    for lam in np.linspace(0.0, 0.5, 200):
        purity = 1 - 2 * lam + 2 * lam ** 2
        assert abs(mub_min_bound(purity) - bound_prop1(2, 3, purity / 2)) < 1e-12
    report(7, "qubit-pair closed form matches the grouped bound", t0)


def test_08_root_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    def bisect(n, t, beta, iters=200):
        c = (n - 1.0) ** (t - 1)
        lo, hi = 1.0 / n, beta ** (1.0 / t)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if c * (mid ** t - beta) + (1.0 - mid) ** t > 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    for _ in range(1000):
        n = int(rng.integers(2, 65))
        t = int(rng.integers(2, 6))
        lo, hi = admissible_range(n, t)
        beta = rng.uniform(lo, hi)
        assert abs(upsilon(n, t, beta).value - bisect(n, t, beta)) < 1e-12
    for n in (2, 3, 6, 12, 30, 64):
        betas = np.linspace(*admissible_range(n, 2), 50)
        for beta, y in zip(betas, upsilon_array(n, 2, betas).value):
            assert abs(upsilon_closed_t2(n, beta) - y) < 1e-10
        betas = np.linspace(*admissible_range(n, 3), 50)
        for beta, y in zip(betas, upsilon_array(n, 3, betas).value):
            assert abs(upsilon_closed_t3(n, beta) - y) < 1e-10
        for t in (2, 3, 4, 5):
            assert abs(upsilon(n, t, float(n) ** (1 - t)).value
                       - 1.0 / n) < 1e-12
    report(8, "root solver vs bisection oracle and closed forms", t0)


def test_09_shape_properties_and_jensen():
    t0 = time.perf_counter()
    for n, t in [(2, 3), (6, 3), (12, 5), (30, 5)]:
        grid = np.linspace(*admissible_range(n, t), 100)
        ys = upsilon_array(n, t, grid).value
        assert np.all(np.diff(ys) > 0)
        assert np.all(np.diff(ys, 2) <= 1e-9)
    mub = assign_povms(builtin_design("octahedron"), mub_grouping())
    rng = np.random.default_rng(9)
    batch = audit_states(mub, random_densities(2, 100, rng), [math.inf])
    avg = np.mean(upsilon_array(2, 3, batch.beta_m).value, axis=-1)
    assert np.all(avg <= upsilon_array(2, 3, batch.beta_n).value + 1e-12)
    assert batch.jensen_ok.all()
    report(9, "monotone/concave root curve and Jensen averaging step", t0)


def test_10_bound_validity_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    for name, t in BUILTINS:
        design = builtin_design(name)
        assignment = assign_povms(design, "single")
        n, d = assignment.n_outcomes, design.dimension
        # figure-data rows: ordering invariant on a fine grid
        curves = bound_curves(n, t, np.linspace(*beta_range(n, d, t), 200),
                              [math.inf])
        for prior, nr, p1 in zip(curves.bound_prior[0], curves.bound_prop1_nr,
                                 curves.bound_prop1):
            assert p1 >= nr - 1e-12 >= prior - 2e-12
        alphas = [t, 2 * t, math.inf]
        batch = audit_states(assignment, random_densities(d, 1000, rng),
                             alphas)
        assert batch.all_satisfied.all()
        assert np.all(batch.max_prob_actual <= batch.max_prob_cap + 1e-10)
    assert time.perf_counter() - t0 < 60.0
    report(10, "zero bound violations over 3000 random-state audits", t0)


def test_11_steering_witness():
    t0 = time.perf_counter()
    mub = assign_povms(builtin_design("octahedron"), mub_grouping())
    alice = matched_alice_povms(mub)
    rng = np.random.default_rng(11)
    dims = (2, 2)
    for _ in range(100):
        w = rng.dirichlet(np.ones(4))
        rho_ab = sum(w[i] * np.kron(random_density(2, rng),
                                    random_density(2, rng)) for i in range(4))
        assert steering_check_renyi(rho_ab, dims, alice, mub,
                                    math.inf).satisfied
        assert steering_check_maxprob(rho_ab, dims, alice, mub).satisfied
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    bell = np.outer(phi, phi)
    assert not steering_check_renyi(bell, dims, alice, mub, math.inf).satisfied
    assert not steering_check_maxprob(bell, dims, alice, mub).satisfied
    report(11, "separable states satisfy, entangled state violates", t0)
