"""Symmetric-subspace moments tr(rho^{otimes s} P_sym^(s)), the index-of-
coincidence identity, and the rescaled beta parameters driving every bound.

The general-s moment is the complete homogeneous symmetric polynomial h_s of
the eigenvalues, obtained through the Newton power-sum recursion
    s h_s = sum_{q=1}^{s} tr(rho^q) h_{s-q},   h_0 = 1.
"""

from __future__ import annotations

import numpy as np

from .designs import (DesignStrengthError, PovmAssignment,
                      all_outcome_probabilities)
from .quantum import power_moments, sym_dim_inv


def sym_moment(rho, s: int) -> float:
    """tr(rho^{otimes s} P_sym^(s)) via the power-sum recursion, s >= 2."""
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    return complete_homogeneous(power_moments(rho, s), s)


def complete_homogeneous(p, s: int):
    """h_s of the eigenvalues from their power sums p[..., q-1] = tr(rho^q),
    q = 1..s; p may hold the power sums of a stack of states."""
    h = [1.0]
    for k in range(1, s + 1):
        h.append(sum(p[..., q - 1] * h[k - q] for q in range(1, k + 1)) / k)
    return h[s]


def beta_range(n: int, d: int, s: int) -> tuple[float, float]:
    """Closed admissible interval of the rescaled index of coincidence:
    (n^{1-s}, n^{1-s} d^s / dim_sym)."""
    lo = float(n) ** (1 - s)
    return lo, lo * d**s * sym_dim_inv(d, s)


def check_order(assignment: PovmAssignment, s: int) -> None:
    """Reject an index order s outside 2..t, t the design strength."""
    strength = assignment.design.strength
    if s > strength:
        raise ValueError(f"s={s} exceeds the design strength {strength}")
    if s < 2:
        raise ValueError("s must be >= 2")


def betas_from_power_sums(assignment: PovmAssignment, p, s: int):
    """(beta_n, beta) at order s from the power sums p[..., q-1] = tr(rho^q),
    q = 1..s, of one state or a stack of states."""
    check_order(assignment, s)
    design = assignment.design
    d, n, k = design.dimension, assignment.n_outcomes, design.size
    scale = d**s * sym_dim_inv(d, s) * complete_homogeneous(p, s)
    return float(n) ** (1 - s) * scale, float(k) ** (1 - s) * scale


def check_index_identity(assignment: PovmAssignment, beta_m, beta_n,
                         s: int) -> None:
    """Verify sum_m sum_j p_j^s = M beta_n to 1e-10, the identity every
    s-design obeys.  beta_m[..., m] = sum_j p_j^s of POVM m; beta_m and
    beta_n may hold a stack of states.  A failure means the claimed strength
    is false and raises DesignStrengthError."""
    lhs = np.sum(beta_m, axis=-1)
    rhs = assignment.n_povms * np.asarray(beta_n)
    bad = np.flatnonzero(~(np.abs(lhs - rhs) <= 1e-10))
    if bad.size:
        i = bad[0]
        raise DesignStrengthError(
            f"index-of-coincidence identity violated: "
            f"sum p^{s} = {np.ravel(lhs)[i]} vs M*beta_n = {np.ravel(rhs)[i]}; "
            f"the design is not a {s}-design")


def beta_parameters(assignment: PovmAssignment, rho, s: int
                    ) -> tuple[float, float]:
    """(beta_n, beta) of a state under an assignment at order s.

    beta_n = n^{1-s} d^s sym_dim_inv(d,s) tr(rho^{otimes s} P_sym), and beta
    is the same with K in place of n.  The design identity
    sum_m sum_j p_j^s = M beta_n is verified against the actual outcome
    probabilities to 1e-10 (see check_index_identity).
    """
    bn, bk = betas_from_power_sums(assignment, power_moments(rho, s), s)
    probs = all_outcome_probabilities(assignment, rho)
    check_index_identity(assignment, np.sum(probs**s, axis=-1), bn, s)
    return float(bn), float(bk)
