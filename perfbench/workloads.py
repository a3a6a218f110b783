"""The three benchmark workloads: their seeded inputs and one repetition
("rep") of each.

Both sides use this module: the worker runs reps, and the runner rebuilds
the same inputs from the same seed to check the outputs.  Nothing here
imports the package at module level, so the runner can use the input
generators without loading the code under test.

An item is one state for audit-oct, one beta grid point for sweep-icd and
one bipartite state (three checks) for steering-2q.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("audit-oct", "sweep-icd", "steering-2q")

# Items per rep: (timed rep, traced rep).  Timed reps are short, about
# 0.1 s, so that each can be corrected for the machine's speed at that
# moment (see speed.py); the median is taken over about 150 of them.  The
# traced rep is the full CLI call the counts are quoted for.  "quick" is
# the smoke-test size.
SIZES = {
    "full": {"audit-oct": (100, 2000), "sweep-icd": (2000, 20000),
             "steering-2q": (50, 1000)},
    "quick": {"audit-oct": (20, 20), "sweep-icd": (200, 200),
              "steering-2q": (10, 10)},
}

AUDIT_ALPHAS = "3,6,inf"
SWEEP_ALPHA = 10.0
STEERING_DIMS = (2, 2)
STEERING_ALPHAS = (math.inf, 3.0)


@dataclass(frozen=True)
class Rep:
    """The inputs of one repetition, all derived from (seed, index, size)."""

    workload: str
    seed: int
    index: int
    size: int

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index])

    @property
    def cli_seed(self) -> int:
        """The --seed handed to `audit`."""
        return int(np.random.SeedSequence([self.seed, self.index])
                   .generate_state(1)[0])

    @property
    def points(self) -> int:
        """Grid size of a sweep rep.  It varies with the seed and the rep by
        up to 5 % so that no two reps share a grid: a value cache kept
        across calls cannot turn a later rep into a replay."""
        return self.size + int(self.rng().integers(0, self.size // 20 + 1))

    @property
    def items(self) -> int:
        if self.workload == "audit-oct":
            return self.size + 1          # the CLI adds the maximally mixed state
        if self.workload == "sweep-icd":
            return self.points
        return self.size

    def argv(self, output: Path | None = None) -> list[str]:
        if self.workload == "audit-oct":
            return ["audit", "--design", "octahedron", "--samples",
                    str(self.size), "--seed", str(self.cli_seed),
                    "--alphas", AUDIT_ALPHAS]
        if self.workload == "sweep-icd":
            return ["sweep", "--design", "icosidodecahedron", "--points",
                    str(self.points), "--alphas", f"{SWEEP_ALPHA:g}",
                    "--output", str(output)]
        raise ValueError(f"{self.workload} is not a CLI workload")


def steering_states(rep: Rep) -> list[tuple[float | None, np.ndarray]]:
    """Two-qubit states (v, rho): even items are Hilbert-Schmidt random
    (v is None), odd items isotropic v|Phi+><Phi+| + (1 - v) I/4."""
    rng = rep.rng()
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    bell = np.outer(phi, phi.conj())
    states = []
    for i in range(rep.size):
        if i % 2 == 0:
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            states.append((None, m / np.trace(m).real))
        else:
            v = float(rng.uniform(0.0, 1.0))
            states.append((v, v * bell + (1.0 - v) * np.eye(4) / 4.0))
    return states


def build(workload: str):
    """What a user builds before evaluating: the design and its assignment,
    plus Alice's matched POVMs for steering-2q."""
    from design_uncertainty import designs, steering

    if workload == "audit-oct":
        return designs.assign_povms(designs.builtin_design("octahedron"),
                                    "single"), None
    if workload == "sweep-icd":
        return designs.assign_povms(
            designs.builtin_design("icosidodecahedron"), "single"), None
    assignment = designs.assign_povms(designs.builtin_design("octahedron"),
                                      designs.mub_grouping())
    return assignment, steering.matched_alice_povms(assignment)


def prepare(rep: Rep, workdir: Path, tag: int):
    """Inputs of a rep, made before its timer starts."""
    if rep.workload == "steering-2q":
        return [rho for _, rho in steering_states(rep)]
    output = workdir / f"sweep-{tag}.csv" if rep.workload == "sweep-icd" else None
    return rep.argv(output)


def run(rep: Rep, prepared) -> dict:
    """One timed repetition.  Returns what the runner checks."""
    if rep.workload == "steering-2q":
        return _run_steering(prepared)
    return _run_cli(prepared)


def _run_cli(argv: list[str]) -> dict:
    from design_uncertainty import cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:       # a crash fails the rep, not the run
            error = f"{type(exc).__name__}: {exc}"
    result = {"exit": code, "stdout": out.getvalue(),
              "stderr": err.getvalue(), "error": error}
    if "--output" in argv:
        result["output"] = argv[argv.index("--output") + 1]
    return result


def _run_steering(states: list[np.ndarray]) -> dict:
    from design_uncertainty import steering

    assignment, alice = build("steering-2q")
    rows, errors = [], []
    for rho in states:
        try:
            row = []
            for alpha in STEERING_ALPHAS:
                res = steering.steering_check_renyi(
                    rho, STEERING_DIMS, alice, assignment, alpha)
                row += [res.lhs, res.rhs]
            res = steering.steering_check_maxprob(
                rho, STEERING_DIMS, alice, assignment)
            rows.append(row + [res.lhs, res.rhs])
            errors.append(None)
        except Exception as exc:       # a crash fails the item, not the run
            rows.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return {"rows": rows, "errors": errors}
