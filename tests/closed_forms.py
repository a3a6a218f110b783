"""Closed forms of the maximal root Y(n, t, beta) for t = 2 and t = 3, kept
as oracles for the Newton solver, which serves every t."""

import cmath
import math

from design_uncertainty import admissible_range


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
