"""Maximal real root Y(n, t, beta) of

    (n-1)^{t-1} y^t + (1 - y)^t = (n-1)^{t-1} beta,

which caps the largest outcome probability when the order-t index of
coincidence equals beta.  One iteration finds it: Newton's method started
at beta^{1/t} (always above the root, so the convex branch converges from
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

upsilon_array runs the iteration on an array of beta, element-wise with a
masked Newton step and bisection guard; upsilon is its view on one beta.
One explicit Newton step gives the analytic upper estimate used by the
weaker bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 200


class UncertifiedRootError(RuntimeError):
    """Raised when a root's relative residual exceeds 1e-12."""


@dataclass(frozen=True)
class UpsilonResult:
    """A root with its certificate.  upsilon fills the fields with a float
    and an int, upsilon_array with arrays of the shape of its input."""

    value: float
    residual: float   # |y^t/beta + (1-y)^t / ((n-1)^{t-1} beta) - 1|
    iterations: int


def admissible_range(n: int, t: int) -> tuple[float, float]:
    """beta must lie in [n^{1-t}, 1] for n probabilities summing to 1."""
    return float(n) ** (1 - t), 1.0


def _check_queries(n: int, t: int, betas) -> np.ndarray:
    """beta clamped into the admissible range; ValueError outside it, and
    for NaN."""
    if n < 2 or t < 2:
        raise ValueError(f"need n >= 2 and t >= 2, got n={n}, t={t}")
    betas = np.asarray(betas, dtype=float)
    lo, hi = admissible_range(n, t)
    outside = ~((betas >= lo - 1e-12) & (betas <= hi + 1e-12))
    if np.any(outside):
        raise ValueError(f"beta={betas[outside][0]} outside admissible "
                         f"[{lo}, {hi}] for n={n}, t={t}")
    return np.clip(betas, lo, hi)


def upsilon_array(n: int, t: int, betas) -> UpsilonResult:
    """Maximal real roots for an array of beta by guarded Newton iteration,
    element-wise.  Finished elements leave the working set, so each step
    costs only the elements still moving."""
    betas = np.asarray(betas, dtype=float)
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

    # relative residual |y^t/beta + (1-y)^t / (c beta) - 1|
    res = np.where(beta >= 1.0 - 1e-15, 0.0,
                   abs(y_out**t / beta
                       + (1.0 - y_out) ** t / (c * beta) - 1.0))
    worst = int(np.argmax(res)) if res.size else 0
    if res.size and res[worst] > 1e-12:
        raise UncertifiedRootError(
            f"Newton failed to converge: n={n}, t={t}, beta={beta[worst]}, "
            f"residual={res[worst]}")
    shape = betas.shape
    return UpsilonResult(y_out.reshape(shape), res.reshape(shape),
                         iters.reshape(shape))


def upsilon(n: int, t: int, beta: float) -> UpsilonResult:
    """Maximal real root for one beta: the view of upsilon_array on a 0-d
    array."""
    r = upsilon_array(n, t, float(beta))
    return UpsilonResult(float(r.value), float(r.residual), int(r.iterations))


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

