"""Steering inequalities for bipartite states measured with design-assigned
POVMs: the conditional-Renyi inequality and the max-probability inequality.

Alice measures POVMs F^(m) on her side; Bob's conditioned states are measured
with the design POVMs E^(m).  Both right-hand sides use the state-independent
form of the single-system bounds, which is what makes the inequalities valid
for every unsteerable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import state_independent_bound, state_independent_cap
from .designs import PovmAssignment, check_strength, outcome_probabilities
from .entropy import conditional_renyi_arimoto
from .quantum import PSD_ATOL, check_density, partial_trace


@dataclass(frozen=True, eq=False)
class ConditionalEnsemble:
    """Bob's states conditioned on the outcomes of one Alice POVM."""

    weights: np.ndarray              # outcome probabilities p_l
    states: tuple[np.ndarray, ...]   # conditioned density matrices rho_Bl
    valid: np.ndarray                # False where p_l = 0 (placeholder state)


@dataclass(frozen=True)
class SteeringResult:
    lhs: float
    rhs: float
    satisfied: bool


def _povm_roots(elements, d: int) -> np.ndarray:
    """Validate one Alice POVM on C^d (shapes, Hermitian, PSD, sum to the
    identity) and return the PSD square roots of its elements, stacked.
    Each test is written so that NaN fails it."""
    ops = np.asarray(elements, dtype=complex)
    if ops.ndim != 3 or ops.shape[1:] != (d, d):
        raise ValueError(f"Alice POVM elements have shape {ops.shape[1:]}, "
                         f"expected {(d, d)}")
    if not np.max(np.abs(ops - ops.conj().swapaxes(-1, -2))) <= 1e-10:
        raise ValueError("Alice POVM element is not Hermitian")
    if not np.max(np.abs(ops.sum(axis=0) - np.eye(d))) <= 1e-10:
        raise ValueError("Alice POVM elements do not sum to the identity")
    evals, evecs = np.linalg.eigh(ops)
    if not evals[:, 0].min() >= -PSD_ATOL:
        raise ValueError(f"Alice POVM element has negative eigenvalue "
                         f"{evals[:, 0].min()}")
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]) \
        @ evecs.conj().swapaxes(-1, -2)


def conditioned_ensemble(rho_ab, dims, alice_povm) -> ConditionalEnsemble:
    """Condition rho_AB on the outcomes of one Alice POVM.

    p_l = tr((F_l x I) rho_AB) and rho_Bl is the normalized partial trace of
    sqrt(F_l x I) rho_AB sqrt(F_l x I).  Zero-weight outcomes get a flagged
    maximally mixed placeholder.
    """
    da, db = dims
    rho_ab = np.asarray(rho_ab, dtype=complex)
    eye_b = np.eye(db, dtype=complex)
    weights, states, valid = [], [], []
    for sqrt_f in _povm_roots(alice_povm, da):
        big = np.kron(sqrt_f, eye_b)
        sub = big @ rho_ab @ big
        p = float(np.trace(sub).real)
        if p < 1e-14:
            weights.append(0.0)
            states.append(np.eye(db, dtype=complex) / db)
            valid.append(False)
        else:
            weights.append(p)
            states.append(partial_trace(sub, dims, "B") / p)
            valid.append(True)
    return ConditionalEnsemble(weights=np.array(weights),
                               states=tuple(states),
                               valid=np.array(valid))


def _check_inputs(rho_ab, dims, alice_povms,
                  bob_assignment: PovmAssignment) -> np.ndarray:
    """The validated rho_AB of a steering check, whose dims must match it
    and Bob's design, with one Alice POVM per Bob POVM; Bob's design must
    pass check_strength at its claimed strength."""
    if len(alice_povms) != bob_assignment.n_povms:
        raise ValueError(f"Alice has {len(alice_povms)} POVMs, Bob has "
                         f"{bob_assignment.n_povms}")
    da, db = dims
    rho_ab = check_density(rho_ab)
    if rho_ab.shape != (da * db, da * db):
        raise ValueError(f"state shape {rho_ab.shape} does not match dims "
                         f"{(da, db)}")
    design = bob_assignment.design
    if db != design.dimension:
        raise ValueError(f"Bob dimension {db} does not match design "
                         f"dimension {design.dimension}")
    # both right-hand sides assume the claimed strength
    check_strength(design, design.strength)
    return rho_ab


def matched_alice_povms(assignment: PovmAssignment) -> list[list[np.ndarray]]:
    """Alice POVMs correlated element-for-element with Bob's design
    assignment on the maximally entangled state: the transposes E^T of
    Bob's elements, since (E^T (x) I)|Phi+> = (I (x) E)|Phi+>."""
    return [[e.T for e in assignment.povm_elements(m)]
            for m in range(assignment.n_povms)]


def _joint_matrices(rho_ab, dims, alice_povms,
                    bob_assignment: PovmAssignment):
    """Validate the inputs of a steering check, then yield for each POVM m
    the joint matrix p[j, l] = p_l p(j | rho_Bl) of Bob's outcome j of E^(m)
    and Alice's outcome l of F^(m); zero-weight columns stay zero."""
    rho_ab = _check_inputs(rho_ab, dims, alice_povms, bob_assignment)
    for m, alice_povm in enumerate(alice_povms):
        ens = conditioned_ensemble(rho_ab, dims, alice_povm)
        joint = np.zeros((bob_assignment.n_outcomes, len(ens.weights)))
        for ell, (w, rho_b, ok) in enumerate(zip(ens.weights, ens.states,
                                                 ens.valid)):
            if ok:
                joint[:, ell] = w * outcome_probabilities(bob_assignment, m, rho_b)
        yield joint


def steering_check_renyi(rho_ab, dims, alice_povms,
                         bob_assignment: PovmAssignment, alpha
                         ) -> SteeringResult:
    """Average Arimoto conditional alpha-entropy of Bob's outcomes given
    Alice's, against the state-independent Renyi bound (alpha >= t)."""
    design = bob_assignment.design
    n, t = bob_assignment.n_outcomes, design.strength
    rhs = state_independent_bound(n, design.dimension, t, alpha)
    total = sum(conditional_renyi_arimoto(joint, alpha) for joint in
                _joint_matrices(rho_ab, dims, alice_povms, bob_assignment))
    lhs = float(total / len(alice_povms))
    return SteeringResult(lhs=lhs, rhs=rhs, satisfied=lhs >= rhs - 1e-10)


def steering_check_maxprob(rho_ab, dims, alice_povms,
                           bob_assignment: PovmAssignment) -> SteeringResult:
    """Average conditioned maximal probability against the state-independent
    Landau-Pollak cap."""
    # Python's sum adds the column maxima in order, as a loop would
    total = sum(sum(joint.max(axis=0)) for joint in
                _joint_matrices(rho_ab, dims, alice_povms, bob_assignment))
    design = bob_assignment.design
    n, t = bob_assignment.n_outcomes, design.strength
    lhs = float(total / len(alice_povms))
    rhs = state_independent_cap(n, design.dimension, t)
    return SteeringResult(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs + 1e-10)
