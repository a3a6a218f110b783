"""Complex projective t-designs: built-in polyhedral examples, file I/O,
verification, POVM assignment and outcome probabilities."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import bloch_to_state, sym_dim_inv

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# verify_design's default tolerance, which check_strength applies
FRAME_TOL = 1e-10


class DesignLoadError(ValueError):
    """Raised when a design file is malformed or violates the schema."""


class AssignmentError(ValueError):
    """Raised when a grouping does not yield genuine POVMs."""


class DesignStrengthError(ValueError):
    """Raised when a design fails the check of its claimed strength: the
    design property itself, or the index-of-coincidence identity on a
    state's outcome probabilities."""


def _is_int(x) -> bool:
    """Whether x is an integer and not a bool: 3.0 and True are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _complex_entries(raw) -> np.ndarray:
    """Nested lists of [re, im] pairs, as read from JSON, to an array of
    complex entries.  Every re and im must be a JSON number, an int or a
    float: a bool, string or null raises ValueError, as does a last axis
    that is not a pair."""
    stack = [raw]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(reversed(x))
        elif not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ValueError(f"entry {x!r} is not a number")
    try:
        return np.asarray(raw, dtype=float) @ np.array([1.0, 1j])
    except OverflowError as exc:    # an int beyond the float range
        raise ValueError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class QuantumDesign:
    """A set of K >= d finite unit vectors in C^d with a claimed design
    strength t, both integers >= 1; the only validator of design vectors."""

    dimension: int
    strength: int
    vectors: np.ndarray  # (K, d) complex, rows unit norm
    # frame_residual's cache, by order s
    _residuals: dict[int, float] = field(default_factory=dict, init=False,
                                         repr=False)

    def __post_init__(self):
        for name in ("dimension", "strength"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, "
                                 f"got {value!r}")
            object.__setattr__(self, name, int(value))
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[1] != self.dimension:
            raise ValueError(f"vectors must be (K, {self.dimension}), got {v.shape}")
        if v.shape[0] < self.dimension:
            raise ValueError(f"need K >= d, got K={v.shape[0]}, d={self.dimension}")
        with np.errstate(invalid="ignore", over="ignore"):
            norms = np.linalg.norm(v, axis=1)
        # written so that NaN fails it; non-finite entries give inf or NaN
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-8))
        if bad.size:
            raise ValueError(f"vector {bad[0]} has norm {norms[bad[0]]}, expected 1")
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def frame_residual(self, s: int) -> float:
        """verify_design's frame-potential residual |FP_s - 1/D_s| at order
        s, computed once per order and design object."""
        if s not in self._residuals:
            self._residuals[s] = abs(frame_potential(self, s)
                                     - sym_dim_inv(self.dimension, s))
        return self._residuals[s]


@dataclass(frozen=True)
class VerificationReport:
    passes: bool
    strength: int
    tol: float
    residuals: dict[int, float]  # s -> residual for s = 1..t


@dataclass(frozen=True, eq=False)
class PovmAssignment:
    """Partition of a design into M POVMs of n outcomes each (K = n M)."""

    design: QuantumDesign
    groups: tuple[tuple[int, ...], ...]
    # (M, n, d) design vectors, one block per POVM: built once, read-only
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack = self.design.vectors[np.array(self.groups)]
        stack.setflags(write=False)
        object.__setattr__(self, "vectors", stack)

    @property
    def n_povms(self) -> int:
        return len(self.groups)

    @property
    def n_outcomes(self) -> int:
        return len(self.groups[0])

    def povm_elements(self, m: int) -> list[np.ndarray]:
        """Rank-one elements (d/n) |phi><phi| of the m-th POVM (0-based)."""
        d, n = self.design.dimension, self.n_outcomes
        return [(d / n) * np.outer(v, v.conj()) for v in self.vectors[m]]


def _octahedron_bloch() -> np.ndarray:
    return np.array([
        [1, 0, 0], [-1, 0, 0],
        [0, 1, 0], [0, -1, 0],
        [0, 0, 1], [0, 0, -1],
    ], dtype=float)


def _icosahedron_bloch() -> np.ndarray:
    # cyclic permutations of (0, +/-1, +/-phi), normalized
    pts = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            base = (0.0, s1 * 1.0, s2 * GOLDEN)
            for shift in range(3):
                pts.append([base[(i - shift) % 3] for i in range(3)])
    pts = np.array(pts)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _icosidodecahedron_bloch() -> np.ndarray:
    # cyclic permutations of (0, 0, +/-phi) and (+/-1/2, +/-phi/2, +/-phi^2/2),
    # normalized (circumradius phi)
    pts = []
    for s in (1, -1):
        base = (0.0, 0.0, s * GOLDEN)
        for shift in range(3):
            pts.append([base[(i - shift) % 3] for i in range(3)])
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                base = (s1 * 0.5, s2 * GOLDEN / 2.0, s3 * GOLDEN**2 / 2.0)
                for shift in range(3):
                    pts.append([base[(i - shift) % 3] for i in range(3)])
    pts = np.array(pts)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


BUILTINS = {
    "octahedron": (_octahedron_bloch, 3),
    "icosahedron": (_icosahedron_bloch, 5),
    "icosidodecahedron": (_icosidodecahedron_bloch, 5),
}


@functools.cache
def builtin_design(name: str) -> QuantumDesign:
    """One of the built-in d=2 polyhedral designs: octahedron (K=6, t=3),
    icosahedron (K=12, t=5), icosidodecahedron (K=30, t=5).

    Each is built once per process and shared by every caller, so its
    vectors are read-only: writing to them raises ValueError."""
    try:
        bloch_fn, strength = BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown design {name!r}; "
                         f"choose from {sorted(BUILTINS)}") from None
    vectors = np.array([bloch_to_state(b) for b in bloch_fn()])
    design = QuantumDesign(dimension=2, strength=strength, vectors=vectors)
    design.vectors.setflags(write=False)
    return design


def save_design(design: QuantumDesign, path) -> None:
    payload = {
        "dimension": design.dimension,
        "strength": design.strength,
        "vectors": [[[a.real, a.imag] for a in row] for row in design.vectors],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_design(path) -> QuantumDesign:
    """Load a design from JSON with each vector component an [re, im] pair;
    malformed files, and vectors QuantumDesign rejects, raise
    DesignLoadError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise DesignLoadError(f"cannot read design file {path}: {exc}") from exc
    try:
        vectors = _complex_entries(raw["vectors"])
        return QuantumDesign(dimension=raw["dimension"],
                             strength=raw["strength"], vectors=vectors)
    except KeyError as exc:
        raise DesignLoadError(f"design file {path} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DesignLoadError(f"design file {path}: {exc}") from exc


def frame_potential(design: QuantumDesign, s: int) -> float:
    """(1/K^2) sum_{j,k} |<phi_j|phi_k>|^{2s}; >= sym_dim_inv(d, s) with
    equality exactly for an s-design."""
    if s < 1:
        raise ValueError("s must be >= 1")
    overlaps = np.abs(design.vectors @ design.vectors.conj().T) ** 2
    return float(np.mean(overlaps**s))


def verify_design(design: QuantumDesign, t: int,
                  tol: float = FRAME_TOL) -> VerificationReport:
    """Check the design property at strength t: the frame potential against
    sym_dim_inv for s = 1..t.  The residual FP_s - 1/D_s is the squared
    Hilbert-Schmidt distance of (1/K) sum |phi><phi|^{otimes s} from
    P_sym^(s) / D_s, D_s = binom(d+s-1, s), so it is 0 exactly for an
    s-design.  ValueError for t < 1 and for a tol that is not finite and
    >= 0.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    residuals = {s: design.frame_residual(s) for s in range(1, t + 1)}
    passes = all(r <= tol for r in residuals.values())
    return VerificationReport(passes=passes, strength=t, tol=tol,
                              residuals=residuals)


def check_strength(design: QuantumDesign, s: int) -> None:
    """Raise DesignStrengthError unless the design passes verify_design's
    frame test at every order up to s, at tolerance FRAME_TOL.  The orders
    are read in turn from the design's cached frame_residual, and the first
    failing order ends the check.  ValueError for s outside 1..t, t its
    claimed strength."""
    if not 1 <= s <= design.strength:
        raise ValueError(f"s must lie in 1..{design.strength}, the claimed "
                         f"strength, got {s}")
    for k in range(1, s + 1):
        r = design.frame_residual(k)
        if not r <= FRAME_TOL:
            raise DesignStrengthError(
                f"the design is not a {s}-design: frame-potential residual "
                f"{r:.12g} at s={k} exceeds {FRAME_TOL:.12g}")


def assign_povms(design: QuantumDesign, grouping="single") -> PovmAssignment:
    """Assign POVMs to a design.

    grouping "single" takes the whole design as one POVM of K elements;
    otherwise grouping is a partition of {0..K-1} into equal-sized blocks
    of integer indices, each of which must resolve the identity as
    (d/n) sum |phi><phi| = I.
    """
    k, d = design.size, design.dimension
    if isinstance(grouping, str):
        if grouping != "single":
            raise ValueError(f"unknown grouping {grouping!r}")
        groups = (tuple(range(k)),)
    else:
        try:
            groups = tuple(tuple(g) for g in grouping)
        except TypeError:
            raise AssignmentError("grouping must be a list of index "
                                  "lists") from None
        bad = [i for g in groups for i in g if not _is_int(i)]
        if bad:
            raise AssignmentError(f"grouping index {bad[0]!r} is not an "
                                  f"integer")
        groups = tuple(tuple(int(i) for i in g) for g in groups)
        sizes = {len(g) for g in groups}
        if len(sizes) != 1:
            raise AssignmentError(f"blocks have unequal sizes {sorted(sizes)}")
        flat = sorted(i for g in groups for i in g)
        if flat != list(range(k)):
            raise AssignmentError("blocks must partition the design indices")
    assignment = PovmAssignment(design=design, groups=groups)
    vs = assignment.vectors
    # (d/n) sum_j |phi_j><phi_j| of every block in one contraction
    totals = (d / assignment.n_outcomes) * np.einsum("mja,mjb->mab", vs,
                                                      vs.conj())
    bad = np.flatnonzero(np.abs(totals - np.eye(d)).max(axis=(1, 2)) > 1e-10)
    if bad.size:
        raise AssignmentError(f"block {bad[0]} does not resolve the identity")
    return assignment


def mub_grouping() -> list[list[int]]:
    """The {+/-x}, {+/-y}, {+/-z} partition of the built-in octahedron."""
    return [[0, 1], [2, 3], [4, 5]]


def outcome_probabilities(assignment: PovmAssignment, m: int, rho) -> np.ndarray:
    """Outcome distribution p_j = (d/n) <phi_j|rho|phi_j> of POVM m
    (0-based): row m of all_outcome_probabilities."""
    return all_outcome_probabilities(assignment, rho)[m]


def all_outcome_probabilities(assignment: PovmAssignment, rho) -> np.ndarray:
    """(M, n) array of outcome distributions, one row per POVM: the
    outcome_probability_batch of one state."""
    rho = np.asarray(rho, dtype=complex)
    d = assignment.design.dimension
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match dimension {d}")
    return outcome_probability_batch(assignment, rho[None])[0]


def outcome_probability_batch(assignment: PovmAssignment, rhos) -> np.ndarray:
    """(N, M, n) outcome distributions of a stack of N states, from one
    contraction over the stacked (M, n, d) design vectors."""
    rhos = np.asarray(rhos, dtype=complex)
    d, n = assignment.design.dimension, assignment.n_outcomes
    if rhos.ndim != 3 or rhos.shape[1:] != (d, d):
        raise ValueError(f"states shape {rhos.shape} is not (N, {d}, {d})")
    vs = assignment.vectors
    probs = (d / n) * np.real(np.einsum("mjd,Ndc,mjc->Nmj", vs.conj(), rhos, vs))
    return np.clip(probs, 0.0, None)
