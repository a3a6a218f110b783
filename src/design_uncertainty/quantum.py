"""Complex linear-algebra substrate: states, density matrices, partial
traces, power sums, symmetric moments and seeded random sampling.

Everything here is a pure function of its inputs.  States are plain complex
numpy vectors, density matrices are plain complex numpy arrays; validators
enforce the physical invariants at the boundaries.
"""

from __future__ import annotations

import math

import numpy as np

NORM_ATOL = 1e-12
PSD_ATOL = 1e-10


def sym_dim_inv(d: int, t: int) -> float:
    """Inverse dimension of the symmetric subspace of t copies of C^d,
    i.e. 1 / binom(d + t - 1, t)."""
    return 1.0 / math.comb(d + t - 1, t)


def check_density(rho) -> np.ndarray:
    """Validate a density matrix: finite, Hermitian, unit trace, PSD within
    tolerance."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    density_spectra(rho)
    return rho


def density_spectra(rhos) -> np.ndarray:
    """Validate a density matrix, or a stack of them along the leading
    axes, as check_density does, and return the ascending eigenvalues of
    each: the one eigvalsh the PSD test needs serves the caller too."""
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim < 2 or rhos.shape[-2] != rhos.shape[-1]:
        raise ValueError(f"density matrix must be square, got shape {rhos.shape}")
    # NaN makes every comparison below False, so it would pass them all.
    # The ndarray methods cost a few microseconds less than np.all/np.max,
    # which the steering checks pay on every state.
    if not np.isfinite(rhos).all():
        raise ValueError("density matrix contains non-finite entries")
    if np.abs(rhos - rhos.conj().swapaxes(-1, -2)).max(initial=0.0) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    tr = np.asarray(rhos.trace(axis1=-2, axis2=-1).real)
    off = np.abs(tr - 1.0)
    if off.max(initial=0.0) > 1e-10:
        raise ValueError(f"density matrix has trace {tr.flat[off.argmax()]}, "
                         f"expected 1")
    evals = np.linalg.eigvalsh(rhos)
    low = evals[..., 0].min(initial=0.0)
    if low < -PSD_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {low}")
    return evals


def bloch_to_state(b) -> np.ndarray:
    """Qubit state with Bloch vector b (unit 3-vector): the +1 eigenvector of
    b . sigma, with the first nonzero amplitude real nonnegative."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if abs(np.linalg.norm(b) - 1.0) > NORM_ATOL:
        raise ValueError(f"Bloch vector has norm {np.linalg.norm(b)}, expected 1")
    bx, by, bz = b
    theta = math.acos(max(-1.0, min(1.0, bz)))
    phi = math.atan2(by, bx)
    psi = np.array([math.cos(theta / 2.0),
                    math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))])
    return fix_global_phase(psi)


def fix_global_phase(psi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate the global phase so the first amplitude above tol is real >= 0."""
    psi = np.asarray(psi, dtype=complex)
    for a in psi:
        if abs(a) > tol:
            psi = psi * (abs(a) / a)
            break
    # scrub signed zeros / dust below tol
    out = psi.copy()
    out[np.abs(out) <= tol] = 0.0
    return out


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def partial_trace(rho_ab, dims, keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Parameters
    ----------
    rho_ab : (dA*dB, dA*dB) array
    dims : (dA, dB)
    keep : "A" or "B", the subsystem to keep
    """
    da, db = dims
    rho_ab = np.asarray(rho_ab, dtype=complex)
    if rho_ab.shape != (da * db, da * db):
        raise ValueError(f"operator shape {rho_ab.shape} does not match dims {dims}")
    r = rho_ab.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ajbj->ab", r)
    if keep == "B":
        return np.einsum("iaib->ab", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def power_moments(rho, qmax: int) -> np.ndarray:
    """[tr(rho^q) for q = 1..qmax], computed from the eigenvalues."""
    return power_sums(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)), qmax)


def power_sums(evals, qmax: int) -> np.ndarray:
    """Power sums sum_i lambda_i^q, q = 1..qmax, of the eigenvalues along the
    last axis of evals (negative ones clipped to 0), stacked on a new last
    axis: for a stack of spectra, the power_moments of every state."""
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    evals = np.clip(evals, 0.0, None)
    return np.stack([np.sum(evals**q, axis=-1) for q in range(1, qmax + 1)],
                    axis=-1)


def complete_homogeneous(p, s: int):
    """h_s of the eigenvalues from their power sums p[..., q-1] = tr(rho^q),
    q = 1..s; p may hold the power sums of a stack of states.

    h_s = tr(rho^{otimes s} P_sym^(s)), the symmetric moment, by the Newton
    recursion k h_k = sum_{q=1}^{k} tr(rho^q) h_{k-q}, h_0 = 1."""
    h = [1.0]
    for k in range(1, s + 1):
        h.append(sum(p[..., q - 1] * h[k - q] for q in range(1, k + 1)) / k)
    return h[s]


def random_density(d: int, rng) -> np.ndarray:
    """Seeded Hilbert-Schmidt random density matrix: the view of
    random_densities on one state."""
    return random_densities(d, 1, rng)[0]


def random_densities(d: int, count: int, rng) -> np.ndarray:
    """(count, d, d) stack of Hilbert-Schmidt random density matrices:
    normalized G G^dagger with complex standard-normal G.  One draw of
    shape (count, 2, d, d) consumes the generator in the order of count
    calls of random_density(d, rng), real part before imaginary part, so
    the states are bit-identical to those calls."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    z = np.random.default_rng(rng).standard_normal((count, 2, d, d))
    g = z[:, 0] + 1j * z[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]

