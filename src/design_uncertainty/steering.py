"""Steering inequalities for bipartite states measured with design-assigned
POVMs: the conditional-Renyi inequality and the max-probability inequality.

Alice measures POVMs F^(m) on her side and Bob the design POVMs E^(m).  Both
checks read one object per Alice POVM, Bob's assemblage
sigma_l = tr_A((F_l x I) rho_AB), whose joint distribution with Bob's
outcomes is p(j, l | m) = tr((F_l x E_j) rho_AB) = tr(E_j sigma_l).  Both
right-hand sides use the state-independent form of the single-system
bounds, which is what makes the inequalities valid for every unsteerable
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import state_independent_bound, state_independent_cap
from .designs import PovmAssignment, check_strength
from .entropy import conditional_renyi_arimoto
from .quantum import PSD_ATOL, check_density


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


def _assemblage(rho_ab, dims, alice_povm) -> np.ndarray:
    """Bob's assemblage sigma_l = tr_A((F_l x I) rho_AB), stacked (L, dB, dB),
    after checking rho_AB's shape against dims and the POVM (shapes,
    Hermitian, sum to the identity, PSD; NaN fails each test)."""
    da, db = dims
    rho_ab = np.asarray(rho_ab, dtype=complex)
    if rho_ab.shape != (da * db, da * db):
        raise ValueError(f"state shape {rho_ab.shape} does not match dims "
                         f"{(da, db)}")
    ops = np.asarray(alice_povm, dtype=complex)
    if ops.ndim != 3 or ops.shape[1:] != (da, da):
        raise ValueError(f"Alice POVM elements have shape {ops.shape[1:]}, "
                         f"expected {(da, da)}")
    if not np.max(np.abs(ops - ops.conj().swapaxes(-1, -2))) <= 1e-10:
        raise ValueError("Alice POVM element is not Hermitian")
    if not np.max(np.abs(ops.sum(axis=0) - np.eye(da))) <= 1e-10:
        raise ValueError("Alice POVM elements do not sum to the identity")
    low = np.linalg.eigvalsh(ops)[:, 0].min()
    if not low >= -PSD_ATOL:
        raise ValueError(f"Alice POVM element has negative eigenvalue {low}")
    return np.einsum("lxa,ayxb->lyb", ops, rho_ab.reshape(da, db, da, db))


def conditioned_ensemble(rho_ab, dims, alice_povm) -> ConditionalEnsemble:
    """Condition rho_AB on the outcomes of one Alice POVM.

    p_l = tr sigma_l and rho_Bl = sigma_l / p_l, from Bob's assemblage
    sigma_l = tr_A((F_l x I) rho_AB).  Zero-weight outcomes get a flagged
    maximally mixed placeholder.
    """
    sigmas = _assemblage(rho_ab, dims, alice_povm)
    weights = np.trace(sigmas, axis1=1, axis2=2).real
    valid = ~(weights < 1e-14)
    db = dims[1]
    return ConditionalEnsemble(
        weights=np.where(valid, weights, 0.0),
        states=tuple(s / w if ok else np.eye(db, dtype=complex) / db
                     for s, w, ok in zip(sigmas, weights, valid)),
        valid=valid)


def _check_inputs(rho_ab, dims, alice_povms,
                  bob_assignment: PovmAssignment) -> np.ndarray:
    """The validated rho_AB of a steering check, whose Bob dimension must
    match Bob's design, with one Alice POVM per Bob POVM; Bob's design must
    pass check_strength at its claimed strength."""
    if len(alice_povms) != bob_assignment.n_povms:
        raise ValueError(f"Alice has {len(alice_povms)} POVMs, Bob has "
                         f"{bob_assignment.n_povms}")
    rho_ab = check_density(rho_ab)
    design = bob_assignment.design
    if dims[1] != design.dimension:
        raise ValueError(f"Bob dimension {dims[1]} does not match design "
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
    the joint matrix p[j, l] = (d/n) <phi_j|sigma_l|phi_j> of Bob's outcome
    j of E^(m) and Alice's outcome l of F^(m), from Bob's assemblage."""
    rho_ab = _check_inputs(rho_ab, dims, alice_povms, bob_assignment)
    scale = dims[1] / bob_assignment.n_outcomes
    for m, alice_povm in enumerate(alice_povms):
        vs = bob_assignment.vectors[m]
        sigma = _assemblage(rho_ab, dims, alice_povm)
        joint = scale * np.einsum("jy,lyb,jb->jl", vs.conj(), sigma, vs).real
        yield np.clip(joint, 0.0, None)


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
    total = sum(joint.max(axis=0).sum() for joint in
                _joint_matrices(rho_ab, dims, alice_povms, bob_assignment))
    design = bob_assignment.design
    n, t = bob_assignment.n_outcomes, design.strength
    lhs = float(total / len(alice_povms))
    rhs = state_independent_cap(n, design.dimension, t)
    return SteeringResult(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs + 1e-10)
