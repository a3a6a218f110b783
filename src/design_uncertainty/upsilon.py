"""Maximal real root Y(n, t, beta) of

    (n-1)^{t-1} y^t + (1 - y)^t = (n-1)^{t-1} beta,

which caps the largest outcome probability when the order-t index of
coincidence equals beta.  At the floor beta = n^{1-t} the root y = 1/n is
double, where rounding beta by 1e-16 moves it by 1e-8.  So the solver works
in the excess variables delta = y - 1/n and beta - lo, with lo the float
n^{1-t} of admissible_range (beta - lo is exact near the floor):

    G(delta) = sum_{k=2..t} a_k delta^k = rhs = (n-1)^{t-1} (beta - lo),
    a_k = C(t, k) (n-1)^{t-k} ((n-1)^{k-1} + (-1)^k) / n^{t-k} >= 0.

The constant and linear terms cancel exactly, so G has no cancellation at
any delta >= 0, and beta = lo gives y = 1/n exactly.  G is convex and
increasing there, so Newton's method falls monotonically onto the root from
min(sqrt(rhs / a_2), beta^{1/t} - 1/n), which lies above it (G >= a_2
delta^2, and y = beta^{1/t} leaves the left side above the right).  It stops
when an iterate does not decrease, where rounding takes over.  Every root is
certified by its relative residual, or UncertifiedRootError is raised.

upsilon_array runs the iteration on an array of beta, element-wise; upsilon
is its view on one beta.  One explicit Newton step, upsilon_nr1, gives the
analytic upper estimate used by the weaker bound.  bounds.bound_curves, the
one evaluation of the bounds, checks its beta once with _check_queries and
calls _roots and _nr1 on the checked array.
"""

from __future__ import annotations

import functools
import math
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
    """beta clamped into the admissible range, as an ndarray for every
    input (np.clip makes a 0-d array a scalar); ValueError outside it, and
    for NaN."""
    if n < 2 or t < 2:
        raise ValueError(f"need n >= 2 and t >= 2, got n={n}, t={t}")
    betas = np.asarray(betas, dtype=float)
    lo, hi = admissible_range(n, t)
    outside = ~((betas >= lo - 1e-12) & (betas <= hi + 1e-12))
    if np.any(outside):
        raise ValueError(f"beta={betas[outside][0]} outside admissible "
                         f"[{lo}, {hi}] for n={n}, t={t}")
    return np.asarray(np.clip(betas, lo, hi))


@functools.lru_cache
def _excess_coefficients(n: int, t: int) -> tuple[tuple[float, ...], ...]:
    """Coefficients a_k and k a_k, k = t down to 2, of the excess polynomial
    G(delta) = sum_k a_k delta^k and of G'(delta) / delta.  Each a_k is a
    ratio of integers rounded once, and none is negative."""
    ks = range(t, 1, -1)
    a = tuple(math.comb(t, k) * (n - 1) ** (t - k)
              * ((n - 1) ** (k - 1) + (-1) ** k) / n ** (t - k) for k in ks)
    return a, tuple(k * a_k for k, a_k in zip(ks, a))


def upsilon_array(n: int, t: int, betas) -> UpsilonResult:
    """Maximal real roots for an array of beta by Newton's method in the
    excess variables, element-wise.  An element whose iterate stops
    decreasing keeps its last iterate, from which every later step is the
    same, so the loop runs until no element moves."""
    return _roots(n, t, _check_queries(n, t, betas))


def _roots(n: int, t: int, checked) -> UpsilonResult:
    """upsilon_array on beta that _check_queries has already checked."""
    shape = checked.shape
    beta = checked.ravel()
    lo, _ = admissible_range(n, t)
    c = float(n - 1) ** (t - 1)
    ceiling = beta >= 1.0 - 1e-15
    y_out = np.where(ceiling, 1.0, 1.0 / n)
    iters = np.zeros(beta.shape, dtype=int)

    idx = np.flatnonzero((beta > lo) & ~ceiling)
    r = c * (beta[idx] - lo)
    a, ka = _excess_coefficients(n, t)
    d = np.minimum(np.sqrt(r / a[-1]), beta[idx] ** (1.0 / t) - 1.0 / n)
    moves = np.zeros(d.shape, dtype=int)
    for _ in range(MAX_ITER):
        # Horner: G(d) = d^2 p, G'(d) = d q
        p, q = a[0], ka[0]
        for a_k, ka_k in zip(a[1:], ka[1:]):
            p, q = p * d + a_k, q * d + ka_k
        dnew = d - (d * d * p - r) / (d * q)
        down = dnew < d
        if not down.any():
            break
        moves += down
        d = np.minimum(d, dnew)
    y_out[idx] = 1.0 / n + d
    iters[idx] = np.minimum(moves + 1, MAX_ITER)

    # relative residual |y^t/beta + (1-y)^t / (c beta) - 1|
    res = np.where(ceiling, 0.0,
                   abs(y_out**t / beta
                       + (1.0 - y_out) ** t / (c * beta) - 1.0))
    worst = int(np.argmax(res)) if res.size else 0
    if res.size and res[worst] > 1e-12:
        raise UncertifiedRootError(
            f"Newton failed to converge: n={n}, t={t}, beta={beta[worst]}, "
            f"residual={res[worst]}")
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
    return float(_nr1(n, t, _check_queries(n, t, beta)))


def _nr1(n: int, t: int, beta) -> np.ndarray:
    """upsilon_nr1, element-wise, on an array of beta that _check_queries
    has already checked."""
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

