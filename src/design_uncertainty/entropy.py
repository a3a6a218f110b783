"""Renyi entropies of outcome distributions, in nats, all from one kernel:
Arimoto's conditional Renyi entropy, whose one-condition case is the
marginal entropy.  The steering checks use its conditional form.

alpha = 1 is the Shannon limit and alpha = math.inf the min-entropy branch;
both are handled exactly rather than as numeric limits.  Probabilities below
1e-15 are treated as exact zeros to avoid -inf * 0 artifacts.
"""

from __future__ import annotations

import math

import numpy as np

PROB_FLOOR = 1e-15
_TINY = np.finfo(float).tiny      # sums of p^alpha below it have underflowed
_SCALE = 1024.0                   # above -ln of the smallest positive double


def renyi_entropies(p, alpha) -> np.ndarray:
    """Renyi alpha-entropies (1-alpha)^{-1} ln sum p^alpha in nats of the
    distributions along the last axis of p: the kernel with one condition.

    alpha = 1 gives the Shannon entropy, alpha = math.inf -ln max(p).
    ValueError unless alpha > 0 and every distribution is non-negative and
    sums to 1 within 1e-10.
    """
    return _arimoto(_distributions(p)[..., None, :], alpha)


def renyi_entropy(p, alpha) -> float:
    """Renyi alpha-entropy of one distribution; see renyi_entropies."""
    return float(renyi_entropies(np.ravel(p), alpha))


def conditional_renyi_arimoto(joint, alpha) -> float:
    """Arimoto conditional Renyi entropy R_alpha(X|Z) of a joint matrix
    p[x, z], one distribution over all its entries (ValueError otherwise,
    as in renyi_entropies).  Columns of zero weight contribute nothing."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint distribution must be a 2d matrix p[x, z]")
    cols = _distributions(np.ravel(joint.T)).reshape(joint.shape[::-1])
    return float(_arimoto(cols, alpha))


def _distributions(p) -> np.ndarray:
    """p as a float array with the entries below PROB_FLOOR set to exact
    zeros; ValueError unless every distribution along its last axis is
    non-negative and sums to 1 within 1e-10."""
    p = np.asarray(p, dtype=float)
    # each test is written so that NaN fails it; an empty stack passes
    if not p.min(initial=math.inf) >= -1e-10:
        raise ValueError("negative or NaN probability")
    if not np.abs(p.sum(axis=-1) - 1.0).max(initial=0.0) <= 1e-10:
        raise ValueError("probabilities do not sum to 1")
    return np.where(p < PROB_FLOOR, 0.0, p)


def _arimoto(p, alpha) -> np.ndarray:
    """The one evaluation of the Renyi family: Arimoto's
    (alpha/(1-alpha)) ln sum_z ||p(., z)||_alpha in nats of the joint
    distributions p[..., z, x] that _distributions returned, outcome axis
    x last.  With ln s_z = ln sum_x p^alpha and its largest column L it is
    (L + alpha ln sum_z exp((ln s_z - L)/alpha)) / (1 - alpha), so one
    column z gives ln s / (1 - alpha) exactly.  ValueError unless
    alpha > 0."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if math.isinf(alpha):
        return -np.log(p.max(axis=-1).sum(axis=-1))
    if alpha == 1:
        # the conditional Shannon entropy -sum p ln(p / p_z)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p * np.log(p / p.sum(axis=-1, keepdims=True))
        return -np.where(p > 0, terms, 0.0).sum(axis=(-2, -1))
    # ln s_z and alpha are carried divided by _SCALE, a power of two, so
    # every step rounds as it would unscaled, and alpha ln m below stays
    # finite up to the largest double alpha
    a = alpha / _SCALE
    s = (p**alpha).sum(axis=-1)
    if s.min(initial=math.inf) >= _TINY:
        logs = np.log(s) / _SCALE
    else:
        # where the sum underflows, take the column maximum m out first:
        # alpha ln m + ln sum (p/m)^alpha; a zero-weight column keeps ln 0
        m = p.max(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = a * np.log(m) \
                + np.log(((p / m[..., None])**alpha).sum(axis=-1)) / _SCALE
            logs = np.where((s < _TINY) & (m > 0), scaled, np.log(s) / _SCALE)
    top = logs.max(axis=-1, keepdims=True)
    rest = np.log(np.exp((logs - top) / a).sum(axis=-1))
    return (top[..., 0] + a * rest) / (1.0 - alpha) * _SCALE
