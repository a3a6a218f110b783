"""Maximal real root Y(n, t, beta) of

    (n-1)^{t-1} y^t + (1 - y)^t = (n-1)^{t-1} beta,

which caps the largest outcome probability when the order-t index of
coincidence equals beta.  The default path is Newton's method started at
beta^{1/t} (always above the root, so the convex branch converges from
above), with a bisection guard on the bracket [1/n, beta^{1/t}].

Every evaluated point becomes a bracket endpoint, every new iterate lies in
the bracket, and the bracket only shrinks, so a point evaluated earlier can
come back only as an endpoint.  The iteration therefore stops when the new
iterate repeats: when it equals the current point or either endpoint.  In
floating point Newton can otherwise cycle between two floats a few ulps
apart (n = 6, t = 3, beta = 0.028 does), which no step-size tolerance
catches.  The stop also covers bracket collapse, where the bisection
midpoint of two adjacent floats is one of them.  Every root is certified by
its relative residual; an uncertified root raises UncertifiedRootError.

upsilon answers one query.  upsilon_array runs the same iteration on an
array of beta, element-wise with a masked Newton step and bisection guard,
for batches; a batch of one goes to upsilon, which is much cheaper for a
single query.  One explicit Newton step gives the analytic upper estimate
used by the weaker bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 200


class UncertifiedRootError(RuntimeError):
    """Raised when a root's relative residual exceeds the tolerance."""


@dataclass(frozen=True)
class UpsilonResult:
    """A root with its certificate.  upsilon_array fills every field but
    method with an array of the shape of its input."""

    value: float
    method: str
    residual: float   # |y^t/beta + (1-y)^t / ((n-1)^{t-1} beta) - 1|
    iterations: int


def admissible_range(n: int, t: int) -> tuple[float, float]:
    """beta must lie in [n^{1-t}, 1] for n probabilities summing to 1."""
    return float(n) ** (1 - t), 1.0


def _check_query(n: int, t: int, beta: float) -> float:
    if n < 2 or t < 2:
        raise ValueError(f"need n >= 2 and t >= 2, got n={n}, t={t}")
    lo, hi = admissible_range(n, t)
    if not lo - 1e-12 <= beta <= hi + 1e-12:     # also rejects NaN
        raise ValueError(f"beta={beta} outside admissible [{lo}, {hi}] "
                         f"for n={n}, t={t}")
    return min(max(beta, lo), hi)


def _check_queries(n: int, t: int, betas) -> np.ndarray:
    """_check_query for an array of beta."""
    if n < 2 or t < 2:
        raise ValueError(f"need n >= 2 and t >= 2, got n={n}, t={t}")
    betas = np.asarray(betas, dtype=float)
    lo, hi = admissible_range(n, t)
    outside = ~((betas >= lo - 1e-12) & (betas <= hi + 1e-12))
    if np.any(outside):
        raise ValueError(f"beta={betas[outside][0]} outside admissible "
                         f"[{lo}, {hi}] for n={n}, t={t}")
    return np.clip(betas, lo, hi)


def _residual(n: int, t: int, beta, y):
    """Relative residual; beta and y may be arrays."""
    c = float(n - 1) ** (t - 1)
    return abs(y**t / beta + (1.0 - y) ** t / (c * beta) - 1.0)


def _uncertified(n: int, t: int, beta: float, res: float):
    return UncertifiedRootError(f"Newton failed to converge: n={n}, t={t}, "
                                f"beta={beta}, residual={res}")


def upsilon(n: int, t: int, beta: float, tol: float = 1e-12) -> UpsilonResult:
    """Maximal real root by guarded Newton iteration."""
    beta = _check_query(n, t, beta)
    lo, _ = admissible_range(n, t)
    c = float(n - 1) ** (t - 1)
    # exact corner cases: the floor gives 1/n, the ceiling gives 1
    if beta <= lo * (1.0 + 1e-14):
        return UpsilonResult(1.0 / n, "newton", _residual(n, t, beta, 1.0 / n), 0)
    if beta >= 1.0 - 1e-15:
        return UpsilonResult(1.0, "newton", 0.0, 0)

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
    res = _residual(n, t, beta, y)
    if res > max(tol, 1e-12):
        raise _uncertified(n, t, beta, res)
    return UpsilonResult(y, "newton", res, it)


def upsilon_array(n: int, t: int, betas, tol: float = 1e-12) -> UpsilonResult:
    """Maximal real roots for an array of beta: the iteration of upsilon,
    element-wise.  Finished elements leave the working set, so each step
    costs only the elements still moving."""
    betas = np.asarray(betas, dtype=float)
    if betas.size == 1:
        r = upsilon(n, t, float(betas.reshape(())), tol)
        return UpsilonResult(np.full(betas.shape, r.value), r.method,
                             np.full(betas.shape, r.residual),
                             np.full(betas.shape, r.iterations))
    beta = _check_queries(n, t, betas).ravel()
    lo, _ = admissible_range(n, t)
    c = float(n - 1) ** (t - 1)
    y_out = np.where(beta <= lo * (1.0 + 1e-14), 1.0 / n, 1.0)
    iters = np.zeros(beta.shape, dtype=int)

    idx = np.flatnonzero((beta > lo * (1.0 + 1e-14)) & (beta < 1.0 - 1e-15))
    b = beta[idx]
    ylo, yhi = np.full(b.shape, 1.0 / n), b ** (1.0 / t)
    y = yhi
    for it in range(1, MAX_ITER + 1):
        fy = c * (y**t - b) + (1.0 - y) ** t
        above = fy > 0.0
        yhi = np.where(above, y, yhi)
        ylo = np.where(above, ylo, y)
        d = t * (c * y ** (t - 1) - (1.0 - y) ** (t - 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ynew = y - fy / d
        step_ok = (d != 0.0) & (ylo <= ynew) & (ynew <= yhi)
        ynew = np.where(step_ok, ynew, 0.5 * (ylo + yhi))
        done = ((ynew == ylo) | (ynew == yhi)
                | (np.abs(ynew - y) < 1e-17 * np.maximum(1.0, np.abs(y))))
        y_out[idx[done]] = ynew[done]
        iters[idx[done]] = it
        going = ~done
        idx, b, ylo, yhi, y = idx[going], b[going], ylo[going], \
            yhi[going], ynew[going]
        if not idx.size:
            break
    y_out[idx] = y
    iters[idx] = MAX_ITER

    res = np.where(beta >= 1.0 - 1e-15, 0.0, _residual(n, t, beta, y_out))
    worst = int(np.argmax(res)) if res.size else 0
    if res.size and res[worst] > max(tol, 1e-12):
        raise _uncertified(n, t, beta[worst], res[worst])
    shape = betas.shape
    return UpsilonResult(y_out.reshape(shape), "newton", res.reshape(shape),
                         iters.reshape(shape))


def upsilon_nr1(n: int, t: int, beta: float) -> float:
    """One explicit Newton step from beta^{1/t}; a valid analytic upper
    estimate of the root (convexity keeps the tangent above it)."""
    return float(upsilon_nr1_array(n, t, beta))


def upsilon_nr1_array(n: int, t: int, betas) -> np.ndarray:
    """upsilon_nr1 for an array of beta."""
    beta = _check_queries(n, t, betas)
    r = beta ** (1.0 / t)
    denom = t * (n - 1.0) ** (t - 1) * beta ** (1.0 - 1.0 / t) \
        - t * (1.0 - r) ** (t - 1)
    ceiling = beta >= 1.0 - 1e-15
    bad = np.ravel(~ceiling & ~(denom > 0.0))
    if np.any(bad):
        raise ValueError(f"degenerate Newton-step denominator for "
                         f"n={n}, t={t}, beta={np.ravel(beta)[bad][0]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ceiling, 1.0, r - (1.0 - r) ** t / denom)


def chi(k: int, t: int, beta: float) -> float:
    """Relative size of the one-step correction: the single-POVM improvement
    over the baseline min-entropy bound equals -ln(1 - chi) >= chi."""
    return 1.0 - upsilon_nr1(k, t, beta) / beta ** (1.0 / t)
