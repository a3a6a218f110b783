"""Command-line front end: design verification, bound sweeps, random-state
audits and steering checks.

Exit codes: 0 success, 1 property/verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import audit_states, beta_range, bound_curves, check_order
from .designs import (BUILTINS, AssignmentError, DesignLoadError,
                      _complex_entries, _is_int, assign_povms, builtin_design,
                      load_design, mub_grouping, verify_design)
from .quantum import maximally_mixed, random_densities
from .steering import (matched_alice_povms, steering_check_maxprob,
                       steering_check_renyi)
from .upsilon import UncertifiedRootError


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_body(table: np.ndarray) -> str:
    """The rows of a 2-d table as CSV lines, each cell as _fmt gives it,
    from one %-template for the whole table."""
    rows, cols = table.shape
    template = (",".join(["%.12g"] * cols) + "\n") * rows
    return template % tuple(table.ravel().tolist())


def _get_design(source: str):
    if source in BUILTINS:
        return builtin_design(source)
    return load_design(source)


def _get_assignment(design, grouping: str):
    if grouping in ("single", "mub"):
        return _named_assignment(design, grouping)
    try:
        with open(grouping) as fh:
            raw = json.load(fh)
    except RecursionError as exc:
        raise AssignmentError(f"cannot read grouping file {grouping}: "
                              f"{exc}") from exc
    return assign_povms(design, raw)


@functools.lru_cache(maxsize=2 * len(BUILTINS))
def _named_assignment(design, grouping: str):
    """The 'single' or 'mub' assignment of a design, built once per design
    object and grouping: a built-in design is one object per process."""
    return assign_povms(design, "single" if grouping == "single"
                        else mub_grouping())


def _parse_alphas(text: str) -> list[float]:
    # float reads inf, Inf, +inf and infinity as math.inf
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _load_bipartite_state(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except RecursionError as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    try:
        da, db = raw["dims"]
        if not all(_is_int(x) and x >= 1 for x in (da, db)):
            raise ValueError(f"dims must be two integers >= 1, "
                             f"got {raw['dims']}")
        mat = _complex_entries(raw["matrix"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    return mat, (da, db)


def cmd_verify(args) -> int:
    design = _get_design(args.design)
    t = args.t if args.t is not None else design.strength
    report = verify_design(design, t, tol=args.tol)
    print(f"design: {args.design}  d={design.dimension}  K={design.size}")
    print(f"method: frame  tol: {_fmt(report.tol)}")
    for s, r in sorted(report.residuals.items()):
        print(f"  s={s}  residual={_fmt(r)}")
    print("PASS" if report.passes else "FAIL")
    return 0 if report.passes else 1


def cmd_sweep(args) -> int:
    design = _get_design(args.design)
    assignment = _get_assignment(design, args.grouping)
    n, d = assignment.n_outcomes, design.dimension
    s = args.s if args.s is not None else design.strength
    # every tabulated bound assumes an s-design
    check_order(assignment, s)
    lo, hi = beta_range(n, d, s)
    grid = np.linspace(lo, hi, args.points)
    # alpha = inf is bound_prop1's column; -inf and NaN fail bound_curves
    finite_alphas = [a for a in _parse_alphas(args.alphas) if a != math.inf]

    header = ["beta_bar", "bound_prior", "bound_prop1", "bound_prop1_nr"]
    header += [f"bound_prop2_alpha{_fmt(a)}" for a in finite_alphas]
    # the baseline column is bound_prior at alpha = inf
    curves = bound_curves(n, s, grid, [math.inf, *finite_alphas])
    prior, prop1, nr = curves.bound_prior[0], curves.bound_prop1, \
        curves.bound_prop1_nr
    bad = np.flatnonzero(~((prop1 >= nr - 1e-12) & (nr >= prior - 1e-12)))
    if bad.size:
        print(f"bound ordering violated at beta_bar={grid[bad[0]]}",
              file=sys.stderr)
        return 1
    table = np.column_stack([grid, prior, prop1, nr,
                             *curves.bound_prop2[1:]])

    if args.format == "csv":
        text = ",".join(header) + "\n" + _csv_body(table)
    else:
        text = json.dumps([dict(zip(header, row)) for row in table.tolist()],
                          indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_audit(args) -> int:
    design = _get_design(args.design)
    assignment = _get_assignment(design, args.grouping)
    s = args.s if args.s is not None else design.strength
    alphas = _parse_alphas(args.alphas)
    d = design.dimension
    states = np.concatenate([
        maximally_mixed(d)[None],
        random_densities(d, args.samples, np.random.default_rng(args.seed))])
    batch = audit_states(assignment, states, alphas, s=s)
    violations = int(np.count_nonzero(~batch.all_satisfied))
    saturations = int(np.count_nonzero(batch.saturated))
    worst_margin = float(np.min(batch.actual - batch.bound_prop2,
                                initial=math.inf))
    print(f"samples: {args.samples} (+ maximally mixed)  seed: {args.seed}")
    print(f"violations: {violations}")
    print(f"saturation events: {saturations}")
    print(f"worst entropy margin: {_fmt(worst_margin)}")
    return 1 if violations else 0


def cmd_steering(args) -> int:
    rho_ab, dims = _load_bipartite_state(args.state)
    design = _get_design(args.design)
    assignment = _get_assignment(design, args.grouping)
    alice = matched_alice_povms(assignment)
    alphas = _parse_alphas(args.alpha)
    if len(alphas) != 1:
        raise ValueError(f"--alpha takes one value, got {args.alpha!r}")
    alpha = alphas[0]
    res_r = steering_check_renyi(rho_ab, dims, alice, assignment, alpha)
    res_m = steering_check_maxprob(rho_ab, dims, alice, assignment)
    print(f"renyi (alpha={args.alpha}): lhs={_fmt(res_r.lhs)} "
          f"rhs={_fmt(res_r.rhs)} satisfied={res_r.satisfied}")
    print(f"max-prob: lhs={_fmt(res_m.lhs)} rhs={_fmt(res_m.rhs)} "
          f"satisfied={res_m.satisfied}")
    if not (res_r.satisfied and res_m.satisfied):
        print("steering witnessed (inequality violated)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar, built once per process: parse_args fills a fresh
    namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="design-uncertainty",
        description="Entropic uncertainty bounds for design-assigned POVMs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify the design property")
    p.add_argument("--design", required=True, help="builtin name or JSON path")
    p.add_argument("--t", type=int, default=None, help="strength to check")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="tabulate bounds over the beta interval")
    p.add_argument("--design", required=True)
    p.add_argument("--grouping", default="single",
                   help="'single', 'mub', or a JSON partition file")
    p.add_argument("-s", type=int, default=None, help="index order (default t)")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--alphas", default="", help="finite alphas for prop2 columns")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("audit", help="audit random states against all bounds")
    p.add_argument("--design", required=True)
    p.add_argument("--grouping", default="single")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphas", default="inf")
    p.add_argument("-s", type=int, default=None)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("steering", help="evaluate steering inequalities")
    p.add_argument("--state", required=True, help="bipartite state JSON file")
    p.add_argument("--design", required=True)
    p.add_argument("--grouping", default="mub")
    p.add_argument("--alpha", default="inf")
    p.set_defaults(fn=cmd_steering)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DesignLoadError, AssignmentError, ValueError, OSError,
            KeyError, json.JSONDecodeError, UncertifiedRootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
