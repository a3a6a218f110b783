"""Oracles for the tests.

For the maximal root Y(n, t, beta): the closed forms for t = 2 and t = 3, a
high-precision mpmath root for every t (also for the float floor the solver
uses), and a scalar float Newton iteration in y kept as a per-query
reference for the array solver.  For the bounds and moments: the
closed-form min-entropy bound of the three qubit MUBs, the explicit
tensor-projector contraction of the symmetric moment and the index-of-
coincidence parameters built on it.  For design verification: the dense
symmetric projector and the operator distance the frame potential
measures.  Also the pure test states the package does not build.
"""

import cmath
import itertools
import math

import mpmath
import numpy as np

from design_uncertainty import UncertifiedRootError, UpsilonResult
from design_uncertainty.quantum import sym_dim_inv
from design_uncertainty.upsilon import MAX_ITER, admissible_range

# Size guard for the dense operators on (C^d)^{otimes t}.
MAX_TENSOR_DIM = 4096


def _clamped(n, t, beta):
    """beta clamped into the admissible range; ValueError outside it."""
    lo, hi = admissible_range(n, t)
    if not lo - 1e-12 <= beta <= hi + 1e-12:
        raise ValueError(f"beta={beta} outside admissible [{lo}, {hi}] "
                         f"for n={n}, t={t}")
    return min(max(beta, lo), hi)


def upsilon_closed_t2(n: int, beta: float) -> float:
    """Closed form for t = 2: (1 + sqrt(n-1) sqrt(n beta - 1)) / n."""
    beta = _clamped(n, 2, beta)
    return (1.0 + math.sqrt(n - 1.0) * math.sqrt(max(n * beta - 1.0, 0.0))) / n


def upsilon_closed_t3(n: int, beta: float) -> float:
    """Closed form for t = 3.

    n = 2 degenerates to the quadratic 3y^2 - 3y + 1 = beta; n >= 3 goes
    through the reduced cubic xi^3 + p xi + q = 0 solved by Cardano with
    principal complex cube roots (argument in (-pi, pi]).
    """
    beta = _clamped(n, 3, beta)
    if beta <= float(n) ** -2 * (1.0 + 1e-14):
        return 1.0 / n
    if n == 2:
        return 0.5 + math.sqrt(max(4.0 * beta - 1.0, 0.0) / 12.0)
    a = n * n - 2.0 * n
    p = -3.0 * (n - 1.0) ** 2 / a**2
    q = (3.0 * n * n - 6.0 * n + 2.0) / a**3 + (1.0 - (n - 1.0) ** 2 * beta) / a
    qq = (p / 3.0) ** 3 + (q / 2.0) ** 2
    sq = cmath.sqrt(complex(qq))
    xi = (-q / 2.0 + sq) ** (1.0 / 3.0) + (-q / 2.0 - sq) ** (1.0 / 3.0)
    y = xi.real - 1.0 / a
    # one Newton step scrubs the cancellation roundoff near Q ~ 0
    c = (n - 1.0) ** 2
    fp = 3.0 * (c * y * y - (1.0 - y) ** 2)
    if fp > 0.0:
        y -= (c * (y**3 - beta) + (1.0 - y) ** 3) / fp
    return y


def upsilon_mp(n: int, t: int, beta) -> mpmath.mpf:
    """Y(n, t, beta) for the float (or mpf) beta taken exactly, at the
    working precision (call inside mpmath.workdps).  Newton's method from
    beta^{1/t}, which lies above the root, decreases onto it because f is
    convex and increasing there; a step that would not decrease y is
    rounding noise, which near the double root at the floor sets in before
    the relative step falls below the working precision."""
    b = mpmath.mpf(beta)
    c = mpmath.mpf(n - 1) ** (t - 1)
    y = b ** (mpmath.mpf(1) / t)
    tiny = mpmath.mpf(10) ** (2 - mpmath.mp.dps)
    for _ in range(1000):
        step = (c * (y**t - b) + (1 - y) ** t) \
            / (t * (c * y ** (t - 1) - (1 - y) ** (t - 1)))
        if step <= 0:
            return y
        y -= step
        if abs(step) <= tiny * y:
            return y
    raise ArithmeticError(f"mpmath Newton did not settle: n={n}, t={t}, "
                          f"beta={beta}")


def upsilon_mp_float_floor(n: int, t: int, beta) -> mpmath.mpf:
    """Y for the root equation whose floor is the float n^{1-t} of
    admissible_range, the equation upsilon_array solves: upsilon_mp at
    beta + (n^{1-t} - float n^{1-t}), all exact.  It equals 1/n at the float
    floor, and it differs from upsilon_mp by up to ~1e-8 relative just above
    it, where the root is double."""
    lo, _ = admissible_range(n, t)
    return upsilon_mp(n, t, mpmath.mpf(beta) - mpmath.mpf(lo)
                      + mpmath.mpf(n) ** (1 - t))


def upsilon_newton(n: int, t: int, beta: float) -> UpsilonResult:
    """Maximal real root by a guarded Newton iteration in y and beta,
    written with Python floats for one query: the bracket, the bisection
    guard, the repeated-iterate stop and the residual certificate.  It
    returns 1/n for beta up to n^{1-t} (1 + 1e-14), up to 1.7e-7 below the
    root, so it is a reference for upsilon_array away from the floor."""
    beta = _clamped(n, t, beta)
    lo, _ = admissible_range(n, t)
    c = float(n - 1) ** (t - 1)

    def residual(y):
        return abs(y**t / beta + (1.0 - y) ** t / (c * beta) - 1.0)

    # exact corner cases: the floor gives 1/n, the ceiling gives 1
    if beta <= lo * (1.0 + 1e-14):
        return UpsilonResult(1.0 / n, residual(1.0 / n), 0)
    if beta >= 1.0 - 1e-15:
        return UpsilonResult(1.0, 0.0, 0)

    def f(y: float) -> float:
        return c * (y**t - beta) + (1.0 - y) ** t

    def fp(y: float) -> float:
        return t * (c * y ** (t - 1) - (1.0 - y) ** (t - 1))

    ylo, yhi = 1.0 / n, beta ** (1.0 / t)   # f(ylo) <= 0 <= f(yhi)
    y = yhi
    for it in range(1, MAX_ITER + 1):
        fy = f(y)
        if fy > 0.0:
            yhi = y
        else:
            ylo = y
        d = fp(y)
        step_ok = d != 0.0
        if step_ok:
            ynew = y - fy / d
            step_ok = ylo <= ynew <= yhi
        if not step_ok:
            ynew = 0.5 * (ylo + yhi)
        # y is now one of the endpoints, so this also catches ynew == y
        if (ynew == ylo or ynew == yhi
                or abs(ynew - y) < 1e-17 * max(1.0, abs(y))):
            y = ynew
            break
        y = ynew
    else:
        it = MAX_ITER
    res = residual(y)
    if res > 1e-12:
        raise UncertifiedRootError(f"Newton failed to converge: n={n}, "
                                   f"t={t}, beta={beta}, residual={res}")
    return UpsilonResult(y, res, it)


def mub_min_bound(purity: float) -> float:
    """Average min-entropy bound for the three qubit MUBs in terms of the
    purity tr(rho^2): ln(2 sqrt(3) / (sqrt(3) + sqrt(2 purity - 1)))."""
    if not 0.5 - 1e-12 <= purity <= 1.0 + 1e-12:
        raise ValueError(f"purity must lie in [1/2, 1], got {purity}")
    root = math.sqrt(max(2.0 * purity - 1.0, 0.0))
    return math.log(2.0 * math.sqrt(3.0) / (math.sqrt(3.0) + root))


def _check_tensor_dim(d: int, t: int) -> None:
    if d**t > MAX_TENSOR_DIM:
        raise ValueError(f"d^t = {d**t} exceeds the supported size "
                         f"{MAX_TENSOR_DIM}")


def sym_projector(d: int, t: int) -> np.ndarray:
    """Projector onto the symmetric subspace of (C^d)^{otimes t}, built as
    the average of all t! tensor-factor permutation operators."""
    if d < 2 or t < 1:
        raise ValueError("need d >= 2 and t >= 1")
    _check_tensor_dim(d, t)
    dim = d**t
    # basis index k <-> digit string (i_1 .. i_t) base d
    digits = np.array(list(itertools.product(range(d), repeat=t)))  # (dim, t)
    weights = d ** np.arange(t - 1, -1, -1)
    proj = np.zeros((dim, dim))
    for sigma in itertools.permutations(range(t)):
        permuted = digits[:, list(sigma)] @ weights
        proj[permuted, np.arange(dim)] += 1.0
    proj /= math.factorial(t)
    return proj.astype(complex)


def tensor_power(x, t: int) -> np.ndarray:
    """x^{otimes t} of a vector or a square matrix, as a dense array."""
    x = np.asarray(x, dtype=complex)
    _check_tensor_dim(x.shape[0], t)
    out = x
    for _ in range(t - 1):
        out = np.kron(out, x)
    return out


def operator_residual(design, s: int) -> tuple[float, float]:
    """(||A_s - P_sym/D_s||_HS^2, max-abs entry of A_s - P_sym/D_s) for
    A_s = (1/K) sum |phi><phi|^{otimes s} and D_s = binom(d+s-1, s): the
    distance the frame potential measures as FP_s - 1/D_s, built densely."""
    vs = np.stack([tensor_power(v, s) for v in design.vectors])
    avg = vs.T @ vs.conj() / design.size
    diff = avg - sym_dim_inv(design.dimension, s) \
        * sym_projector(design.dimension, s)
    return float(np.sum(np.abs(diff) ** 2)), float(np.max(np.abs(diff)))


def sym_moment_direct(rho, s: int) -> float:
    """Explicit contraction tr(rho^{otimes s} P_sym^(s)), s >= 1 and
    d^s within the tensor size guard."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    rho = np.asarray(rho, dtype=complex)
    big = tensor_power(rho, s)
    proj = sym_projector(rho.shape[0], s)
    return float(np.real(np.sum(big * proj.T)))


def beta_parameters_direct(assignment, rho, s: int) -> tuple[float, float]:
    """(beta_n, beta) of one state at order s from the tensor contraction:
    n^{1-s} d^s tr(rho^{otimes s} P_sym) / binom(d+s-1, s), and the same
    with K in place of n."""
    d = assignment.design.dimension
    scale = d**s * sym_moment_direct(rho, s) / math.comb(d + s - 1, s)
    return (float(assignment.n_outcomes) ** (1 - s) * scale,
            float(assignment.design.size) ** (1 - s) * scale)


def pure_density(psi) -> np.ndarray:
    """|psi><psi| of a unit vector psi."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def random_pure_state(d: int, rng) -> np.ndarray:
    """Haar-random unit vector in C^d, drawing the d real parts before the
    d imaginary parts."""
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return g / np.linalg.norm(g)
