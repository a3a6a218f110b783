"""Uncertainty bounds for POVMs assigned to a t-design.

Three families of lower bounds on the (average) Renyi entropy are evaluated
as functions of the rescaled index of coincidence
beta_n = n^{1-t} d^t tr(rho^{otimes t} P_sym) / dim_sym, whose admissible
interval beta_range gives (beta is the same with K in place of n):

  bound_prior     the norm-monotonicity baseline (alpha/(t(1-alpha))) ln beta_n,
                  with -(1/t) ln beta_n at alpha = inf;
  bound_prop1     -ln Y(n, t, beta_n), the maximal-root min-entropy bound;
  bound_prop1_nr  the analytic one-Newton-step weakening of bound_prop1;
  bound_prop2     the interpolation of bound_prop1 with the order-t baseline,
                  valid for alpha >= t, equal to bound_prop1 at alpha = inf.

Landau-Pollak style caps bound the average maximal probability from above by
Y(n, t, beta_n).  bound_curves is the one evaluation of the family and of
its roots, over an array of beta_n; everything else is its view.  The
scalar bound_prior, bound_prop1 and bound_prop2 take one beta_n.
state_independent_bound and state_independent_cap take beta_n at the
design's ceiling, valid for every state, and are cached, so each is
computed once per design (and alpha).  audit_states evaluates everything for a stack of
states and checks the actual entropies against the bounds; audit_state is
its view on one state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .designs import (DesignStrengthError, PovmAssignment, check_strength,
                      outcome_probability_batch)
from .entropy import _arimoto, _distributions
from .quantum import (complete_homogeneous, density_spectra, power_sums,
                      sym_dim_inv)
from .upsilon import _check_queries, _nr1, _roots

SAT_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class AuditBatch:
    """The audit of N states at A alphas: one-state quantities as arrays,
    indexed by state first and alpha last.  audit_state returns the batch
    of one state.  Arrays do not compare as a whole, so neither does a
    batch."""

    dimension: int
    design_size: int
    n_outcomes: int
    n_povms: int
    order: int                    # s used for the index of coincidence
    alphas: tuple
    beta_n: np.ndarray            # (N,)
    beta: np.ndarray              # (N,)
    beta_m: np.ndarray            # (N, M) per-POVM index sums
    purity: np.ndarray            # (N,)
    actual: np.ndarray            # (N, A) average alpha-entropies
    bound_prior: np.ndarray       # (N, A)
    bound_prop1: np.ndarray       # (N,)
    bound_prop1_nr: np.ndarray    # (N,)
    bound_prop2: np.ndarray       # (N, A)
    max_prob_actual: np.ndarray   # (N,)
    max_prob_cap: np.ndarray      # (N,)
    jensen_ok: np.ndarray         # (N,) (1/M) sum Y(beta_m) <= Y(beta_n)
    saturated: np.ndarray         # (N,) min-entropy bound attained

    @property
    def satisfied(self) -> np.ndarray:
        """(N, A) whether each actual entropy clears every bound valid at
        its alpha.  bound_prop1 is valid at every alpha, because
        H_alpha >= H_inf >= -ln Y."""
        return self.actual >= np.maximum(
            np.maximum(self.bound_prior, self.bound_prop2),
            self.bound_prop1[:, None]) - 1e-10

    @property
    def all_satisfied(self) -> np.ndarray:
        """(N,) whether each state satisfies every alpha and its cap."""
        return (np.all(self.satisfied, axis=1)
                & (self.max_prob_actual <= self.max_prob_cap + 1e-10))


def beta_range(n: int, d: int, s: int) -> tuple[float, float]:
    """Closed admissible interval of the rescaled index of coincidence:
    (n^{1-s}, n^{1-s} d^s / dim_sym)."""
    lo = float(n) ** (1 - s)
    return lo, lo * d**s * sym_dim_inv(d, s)


def check_order(assignment: PovmAssignment, s: int) -> None:
    """Reject an index order s outside 2..t, t the design strength, and a
    design that is not an s-design (check_strength): every bound at order s
    assumes one."""
    strength = assignment.design.strength
    if s > strength:
        raise ValueError(f"s={s} exceeds the design strength {strength}")
    if s < 2:
        raise ValueError("s must be >= 2")
    check_strength(assignment.design, s)


def _check_index_identity(assignment: PovmAssignment, beta_m, beta_n,
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


def bound_prior(n: int, t: int, beta_n: float, alpha) -> float:
    """Baseline lower bound on the average alpha-entropy, alpha >= t: the
    bound_curves value at one beta_n."""
    return float(bound_curves(n, t, beta_n, [alpha]).bound_prior[0])


def bound_prop1(n: int, t: int, beta_n: float) -> float:
    """Min-entropy bound -ln Y(n, t, beta_n): the bound_curves value at one
    beta_n."""
    return float(bound_curves(n, t, beta_n, ()).bound_prop1)


def bound_prop2(n: int, t: int, alpha, beta_n: float) -> float:
    """Renyi bound for alpha >= t, the bound_curves value at one beta_n;
    it reduces to the baseline at alpha = t and to bound_prop1 at
    alpha = inf."""
    return float(bound_curves(n, t, beta_n, [alpha]).bound_prop2[0])


@dataclass(frozen=True, eq=False)
class BoundCurves:
    """The bound family over an array of beta_n, each array with the shape
    of beta_n."""

    cap: np.ndarray               # Y(n, t, beta_n)
    bound_prop1: np.ndarray
    bound_prop1_nr: np.ndarray
    bound_prior: tuple            # one array per alpha
    bound_prop2: tuple            # one array per alpha


def bound_curves(n: int, t: int, betas, alphas) -> BoundCurves:
    """The one evaluation of the bounds: the cap Y, bound_prop1,
    bound_prop1_nr, and bound_prior and bound_prop2 at each alpha >= t,
    over an array of beta_n, from one array root solve.  beta_n must lie in
    the admissible range (ValueError otherwise); the roots take it clamped
    into that range, the formulas as given.  The baseline is written
    ln beta_n / (t (1/alpha - 1)), which has no product to overflow at a
    huge finite alpha and gives -(1/t) ln beta_n at alpha = inf."""
    for alpha in alphas:
        if not alpha >= t:    # written so that NaN and -inf fail it
            raise ValueError(f"bound needs alpha >= t, got alpha={alpha}, "
                             f"t={t}")
    betas = np.asarray(betas, dtype=float)
    checked = _check_queries(n, t, betas)
    y = _roots(n, t, checked).value
    prop1, log_beta = -np.log(y), np.log(betas)
    return BoundCurves(
        cap=y, bound_prop1=prop1,
        bound_prop1_nr=-np.log(_nr1(n, t, checked)),
        bound_prior=tuple(log_beta / (t * (1.0 / alpha - 1.0))
                          for alpha in alphas),
        bound_prop2=tuple(
            prop1 if math.isinf(alpha) else
            (alpha - t) / (alpha - 1.0) * prop1 - log_beta / (alpha - 1.0)
            for alpha in alphas))


@functools.lru_cache(maxsize=None)
def state_independent_cap(n: int, d: int, t: int) -> float:
    """Y(n, t, beta_hi) at the state-independent ceiling
    beta_hi = n^{1-t} d^t / dim_sym: a constant of the design, so each
    design's root is solved once."""
    return float(bound_curves(n, t, beta_range(n, d, t)[1], ()).cap)


@functools.lru_cache
def state_independent_bound(n: int, d: int, t: int, alpha) -> float:
    """bound_prop2 evaluated at the state-independent ceiling beta_hi,
    valid for every state: a constant of the design and alpha, computed
    once per pair (a bad alpha raises on every call)."""
    return float(bound_curves(n, t, beta_range(n, d, t)[1],
                              [alpha]).bound_prop2[0])


def landau_pollak_cap(assignment: PovmAssignment, rho, s: int
                      ) -> tuple[float, float]:
    """(actual average max-probability, upper cap Y(n, s, beta_n)): the
    view of audit_state with no alphas, so the claimed strength is checked
    as in every audit."""
    batch = audit_state(assignment, rho, (), s)
    return float(batch.max_prob_actual[0]), float(batch.max_prob_cap[0])


def audit_states(assignment: PovmAssignment, rhos, alphas,
                 s: int | None = None) -> AuditBatch:
    """Evaluate actual entropies and every bound for a stack of states.

    rhos is (N, d, d); alphas may contain floats >= s and math.inf; s
    defaults to the design strength, must lie in 2..t, and the design must
    be an s-design by its frame potential (check_order).  Every state must
    be a density matrix (ValueError otherwise); the batched eigvalsh that
    checks positivity gives the power sums, hence beta_n, beta and the
    purity, one contraction every outcome probability.  The
    index-of-coincidence identity is checked against those probabilities
    on every state as well.  One bound_curves call, so one root solve, on
    beta_n and the per-POVM sums beta_m together gives every bound and the
    Landau-Pollak cap Y(beta_n) in its column 0, and the Jensen terms
    Y(beta_m) in the others.  The probabilities
    are checked and floored as distributions once (as renyi_entropies
    does), and the finite-alpha columns are the Renyi kernel's, each
    distribution its one condition.  Their row maxima, taken once, give
    the min-entropy, the alpha = inf column and the average maximal
    probability.
    """
    design = assignment.design
    t = design.strength if s is None else s
    d, n = design.dimension, assignment.n_outcomes
    alphas = tuple(alphas)
    check_order(assignment, t)
    rhos = np.asarray(rhos, dtype=complex)
    evals = density_spectra(rhos)
    probs = outcome_probability_batch(assignment, rhos)       # (N, M, n)
    p = power_sums(evals, t)
    # d^t tr(rho^{otimes t} P_sym) / dim_sym, rescaled by n^{1-t} and K^{1-t}
    scale = d**t * sym_dim_inv(d, t) * complete_homogeneous(p, t)
    bn, bk = float(n) ** (1 - t) * scale, float(design.size) ** (1 - t) * scale
    beta_m = np.sum(probs**t, axis=-1)                         # (N, M)
    _check_index_identity(assignment, beta_m, bn, t)

    # column 0 is beta_n, the others the Jensen terms: one root solve
    curves = bound_curves(n, t, np.column_stack([bn, beta_m]), alphas)
    y, y_m = curves.cap[:, 0], curves.cap[:, 1:]
    prop1 = curves.bound_prop1[:, 0]

    floored = _distributions(probs)
    max_prob = floored.max(axis=-1)                            # (N, M)
    min_ent = np.mean(-np.log(max_prob), axis=-1)

    def per_alpha(cols) -> np.ndarray:
        return np.stack(cols, axis=-1) if cols else np.empty((len(bn), 0))

    actual = per_alpha([min_ent if math.isinf(a) else
                        np.mean(_arimoto(floored[..., None, :], a), axis=-1)
                        for a in alphas])
    return AuditBatch(
        dimension=design.dimension, design_size=design.size, n_outcomes=n,
        n_povms=assignment.n_povms, order=t, alphas=alphas,
        beta_n=bn, beta=bk, beta_m=beta_m, purity=p[:, 1],
        actual=actual,
        bound_prior=per_alpha([c[:, 0] for c in curves.bound_prior]),
        bound_prop1=prop1, bound_prop1_nr=curves.bound_prop1_nr[:, 0],
        bound_prop2=per_alpha([c[:, 0] for c in curves.bound_prop2]),
        max_prob_actual=np.mean(max_prob, axis=-1),
        max_prob_cap=y,
        jensen_ok=np.mean(y_m, axis=-1) <= y + 1e-10,
        saturated=np.abs(min_ent - prop1) < SAT_ATOL)


def audit_state(assignment: PovmAssignment, rho, alphas, s: int | None = None
                ) -> AuditBatch:
    """Evaluate actual entropies and every bound for one state: the
    audit_states batch of that one state."""
    return audit_states(assignment, np.asarray(rho, dtype=complex)[None],
                        alphas, s)
