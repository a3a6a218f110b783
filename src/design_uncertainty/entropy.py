"""Renyi entropies of outcome distributions, in nats, plus Arimoto's
conditional Renyi entropy for the steering checks.

alpha = 1 is the Shannon limit and alpha = math.inf the min-entropy branch;
both are handled exactly rather than as numeric limits.  Probabilities below
1e-15 are treated as exact zeros to avoid -inf * 0 artifacts.
"""

from __future__ import annotations

import math

import numpy as np

PROB_FLOOR = 1e-15


def renyi_entropies(p, alpha) -> np.ndarray:
    """Renyi alpha-entropies (1-alpha)^{-1} ln sum p^alpha in nats of the
    distributions along the last axis of p.

    alpha = 1 gives the Shannon entropy, alpha = math.inf -ln max(p).
    ValueError unless every distribution is non-negative and sums to 1
    within 1e-10.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    p = _floored(_check_distributions(p))
    if math.isinf(alpha):
        return -np.log(np.max(p, axis=-1))
    return _finite_renyi(p, alpha)


def _check_distributions(p) -> np.ndarray:
    """p as a float array; ValueError unless every distribution along its
    last axis is non-negative and sums to 1 within 1e-10."""
    p = np.asarray(p, dtype=float)
    # each test is written so that NaN fails it; an empty stack passes
    if not p.min(initial=math.inf) >= -1e-10:
        raise ValueError("negative or NaN probability")
    if not np.abs(p.sum(axis=-1) - 1.0).max(initial=0.0) <= 1e-10:
        raise ValueError("probabilities do not sum to 1")
    return p


def _floored(p) -> np.ndarray:
    """p with the entries below PROB_FLOOR set to exact zeros."""
    return np.where(p < PROB_FLOOR, 0.0, p)


def _finite_renyi(p, alpha) -> np.ndarray:
    """renyi_entropies at a finite alpha > 0 of checked, floored p."""
    if alpha == 1:
        nz = p > 0
        return -np.sum(p * np.log(np.where(nz, p, 1.0)), axis=-1)
    return np.log(np.sum(p**alpha, axis=-1)) / (1.0 - alpha)


def renyi_entropy(p, alpha) -> float:
    """Renyi alpha-entropy of one distribution; see renyi_entropies."""
    return float(renyi_entropies(np.ravel(p), alpha))


def conditional_renyi_arimoto(joint, alpha) -> float:
    """Arimoto conditional Renyi entropy R_alpha(X|Z) of a joint matrix
    p[x, z].  Columns of zero weight contribute nothing."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint distribution must be a 2d matrix p[x, z]")
    if not joint.min() >= -1e-10:
        raise ValueError("negative or NaN probability")
    joint = _floored(joint)
    pz = joint.sum(axis=0)
    total = pz.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"joint distribution sums to {total}, expected 1")
    cols = pz > 0
    cond = joint[:, cols] / pz[cols]
    if math.isinf(alpha):
        return -math.log(float(np.sum(pz[cols] * cond.max(axis=0))))
    if alpha == 1:
        # conditional Shannon entropy as the limit
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(cond > 0, -cond * np.log(np.where(cond > 0, cond, 1.0)), 0.0)
        return float(np.sum(pz[cols] * terms.sum(axis=0)))
    inner = np.sum(cond**alpha, axis=0) ** (1.0 / alpha)
    return (alpha / (1.0 - alpha)) * math.log(float(np.sum(pz[cols] * inner)))

