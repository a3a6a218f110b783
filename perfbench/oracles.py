"""Output checks, run by run.py after the timed section.

Each check returns (failed items, problems) for one rep.  The oracles are
independent of the package: the maximal root Y(n, t, beta) is found with
mpmath at 40 digits, steering left-hand sides come from the joint
distribution tr((F_l x E_j) rho) and, for isotropic states, closed forms.
"""

from __future__ import annotations

import math
import re
from math import comb

import mpmath
import numpy as np

from workloads import SWEEP_ALPHA, Rep, steering_states

WORST_MARGIN_FLOOR = -1e-9
CSV_RTOL = 1e-10           # the CLI prints 12 significant digits
CLOSED_FORM_ATOL = 1e-12
JOINT_ATOL = 1e-10
BOUND_SLACK = 1e-10
SWEEP_ORACLE_ROWS = 10     # mpmath-checked rows per sweep rep (plus the ends)
PPT_MARGIN = 1e-12


def upsilon_mp(n: int, t: int, beta) -> mpmath.mpf:
    """Largest real root of (n-1)^{t-1} y^t + (1-y)^t = (n-1)^{t-1} beta.

    f is convex and increasing right of 1/n, so Newton from beta^{1/t}
    (above the root) decreases monotonically onto it.  Call inside
    mpmath.workdps."""
    b = mpmath.mpf(beta)
    c = mpmath.mpf(n - 1) ** (t - 1)
    y = b ** (mpmath.mpf(1) / t)
    for _ in range(500):
        step = (c * (y**t - b) + (1 - y) ** t) \
            / (t * (c * y ** (t - 1) - (1 - y) ** (t - 1)))
        y -= step
        if abs(step) < mpmath.mpf(10) ** (-(mpmath.mp.dps - 2)):
            return y
    raise ArithmeticError(f"mpmath Newton did not settle: n={n} t={t} beta={beta}")


def check_audit(rep: Rep, output: dict) -> tuple[int, list[str]]:
    """exit 0, no violations, exactly one saturation (the maximally mixed
    state), and a worst entropy margin no lower than WORST_MARGIN_FLOOR."""
    if output["error"] or output["exit"] != 0:
        return rep.items, [f"audit exit={output['exit']} error={output['error']} "
                           f"stderr={output['stderr'][-200:]!r}"]
    fields = dict(re.findall(r"^([a-z ]+): (\S+)", output["stdout"], re.M))
    try:
        samples = int(fields["samples"])
        violations = int(fields["violations"])
        saturations = int(fields["saturation events"])
        margin = float(fields["worst entropy margin"])
    except (KeyError, ValueError):
        return rep.items, [f"unreadable audit output {output['stdout']!r}"]
    problems, failed = [], violations
    if samples != rep.size:
        problems.append(f"audited {samples} samples, asked for {rep.size}")
        failed = rep.items
    if violations:
        problems.append(f"{violations} bound violations")
    if saturations != 1:
        problems.append(f"{saturations} saturation events, expected 1")
        failed = max(failed, abs(saturations - 1))
    if not margin >= WORST_MARGIN_FLOOR:
        problems.append(f"worst entropy margin {margin} < {WORST_MARGIN_FLOOR}")
        failed = max(failed, 1)
    return min(failed, rep.items), problems


SWEEP_N, SWEEP_D, SWEEP_T = 30, 2, 5     # icosidodecahedron, one POVM


def check_sweep(rep: Rep, output: dict) -> tuple[int, list[str]]:
    """Row count, bound_prior <= bound_prop1_nr <= bound_prop1 on every row,
    and every column of every k-th row against the mpmath root."""
    if output["error"] or output["exit"] != 0:
        return rep.items, [f"sweep exit={output['exit']} error={output['error']} "
                           f"stderr={output['stderr'][-200:]!r}"]
    try:
        with open(output["output"]) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return rep.items, [f"sweep output unreadable: {exc}"]
    header = ["beta_bar", "bound_prior", "bound_prop1", "bound_prop1_nr",
              f"bound_prop2_alpha{SWEEP_ALPHA:g}"]
    if not lines or lines[0].split(",") != header:
        return rep.items, [f"unexpected sweep header {lines[:1]}"]
    n, d, t, alpha = SWEEP_N, SWEEP_D, SWEEP_T, SWEEP_ALPHA
    lo = float(n) ** (1 - t)
    grid = np.linspace(lo, lo * d**t / comb(d + t - 1, t), rep.points)
    rows = lines[1:]
    problems: list[str] = []
    bad = set(range(len(rows), rep.points))
    if len(rows) != rep.points:
        problems.append(f"{len(rows)} rows, expected {rep.points}")
    step = max(1, rep.points // SWEEP_ORACLE_ROWS)
    sampled = set(range(0, rep.points, step)) | {rep.points - 1}
    with mpmath.workdps(40):
        for i, line in enumerate(rows[:rep.points]):
            beta = grid[i]
            try:
                beta_bar, prior, prop1, nr, prop2 = map(float, line.split(","))
                ok = (math.isclose(beta_bar, beta, rel_tol=CSV_RTOL)
                      and prior <= nr + BOUND_SLACK
                      and nr <= prop1 + BOUND_SLACK)
            except ValueError:
                ok = False
            if ok and i in sampled:
                # the first grid point is the floor n^{1-t}, where Y = 1/n
                y = mpmath.mpf(1) / n if i == 0 else upsilon_mp(n, t, beta)
                b = mpmath.mpf(beta)
                want = (-mpmath.log(b) / t, -mpmath.log(y),
                        -(alpha - t) / (alpha - 1) * mpmath.log(y)
                        - mpmath.log(b) / (alpha - 1))
                ok = all(math.isclose(got, float(w), rel_tol=CSV_RTOL)
                         for got, w in zip((prior, prop1, prop2), want))
            if not ok:
                bad.add(i)
                if len(problems) < 5:
                    problems.append(f"sweep row {i} fails its checks: {line}")
    return len(bad), problems


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def _axis_joints(rho: np.ndarray) -> list[np.ndarray]:
    """joint[j, l] = tr((P_l x P_j) rho) for P_+/- = (I +/- sigma)/2 on each
    axis: the matched MUB POVMs of the octahedron (d/n = 1)."""
    r = rho.reshape(2, 2, 2, 2)
    joints = []
    for sigma in _PAULI:
        proj = [(np.eye(2) + sign * sigma) / 2.0 for sign in (1, -1)]
        joints.append(np.array([[np.einsum("ab,cd,bdac->", pa, pb, r).real
                                 for pa in proj] for pb in proj]))
    return joints


def _arimoto(joint: np.ndarray, alpha: float) -> float:
    if math.isinf(alpha):
        return -math.log(joint.max(axis=0).sum())
    norms = (joint**alpha).sum(axis=0) ** (1.0 / alpha)
    return alpha / (1.0 - alpha) * math.log(norms.sum())


def _separable(rho: np.ndarray) -> bool:
    """Peres-Horodecki: a two-qubit state is separable iff its partial
    transpose is positive."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt).min()) > PPT_MARGIN


def steering_rhs() -> tuple[float, float, float]:
    """State-independent right-hand sides (alpha = inf, alpha = 3, max-prob)
    for the octahedron MUBs: n = 2, t = 3, d = 2."""
    n, t, d = 2, 3, 2
    with mpmath.workdps(40):
        beta = mpmath.mpf(n) ** (1 - t) * d**t / comb(d + t - 1, t)
        y = upsilon_mp(n, t, beta)
        return (float(-mpmath.log(y)), float(-mpmath.log(beta) / (3 - 1)),
                float(y))


def check_steering(rep: Rep, output: dict) -> tuple[int, list[str]]:
    """lhs against the joint-distribution oracle (every state) and the
    closed forms (isotropic states), rhs against the mpmath root, and the
    inequalities on every separable state."""
    rhs = steering_rhs()
    states = steering_states(rep)
    problems: list[str] = []
    failed = 0
    for i, ((v, rho), row, error) in enumerate(zip(states, output["rows"],
                                                     output["errors"])):
        why = error
        if row is not None:
            inf_lhs, inf_rhs, a3_lhs, a3_rhs, mp_lhs, mp_rhs = row
            joints = _axis_joints(rho)
            want = (float(np.mean([_arimoto(j, math.inf) for j in joints])),
                    float(np.mean([_arimoto(j, 3.0) for j in joints])),
                    float(np.mean([j.max(axis=0).sum() for j in joints])))
            if v is not None:
                a, b = (1.0 + v) / 2.0, (1.0 - v) / 2.0
                closed = (-math.log(a), -0.5 * math.log(a**3 + b**3), a)
                if any(abs(x - c) > CLOSED_FORM_ATOL
                       for x, c in zip((inf_lhs, a3_lhs, mp_lhs), closed)):
                    why = f"lhs {inf_lhs, a3_lhs, mp_lhs} vs closed form {closed}"
            if any(abs(x - w) > JOINT_ATOL
                   for x, w in zip((inf_lhs, a3_lhs, mp_lhs), want)):
                why = f"lhs {inf_lhs, a3_lhs, mp_lhs} vs joint oracle {want}"
            if any(not math.isclose(x, w, rel_tol=1e-12)
                   for x, w in zip((inf_rhs, a3_rhs, mp_rhs), rhs)):
                why = f"rhs {inf_rhs, a3_rhs, mp_rhs} vs mpmath {rhs}"
            if _separable(rho) and not (inf_lhs >= inf_rhs - BOUND_SLACK
                                        and a3_lhs >= a3_rhs - BOUND_SLACK
                                        and mp_lhs <= mp_rhs + BOUND_SLACK):
                why = f"separable state violates a steering inequality: {row}"
        elif why is None:
            why = "no result"
        if why is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(f"steering state {i}: {why}")
    if len(output["rows"]) != len(states):
        failed += abs(len(states) - len(output["rows"]))
        problems.append(f"{len(output['rows'])} results for {len(states)} states")
    return min(failed, rep.items), problems


CHECKS = {"audit-oct": check_audit, "sweep-icd": check_sweep,
          "steering-2q": check_steering}
