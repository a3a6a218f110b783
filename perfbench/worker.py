"""Benchmark worker: runs one workload in a fresh process and writes what it
measured to a JSON file.  run.py starts it; it is not meant to be run by
hand.

  worker.py --setup-only --workload W
      import the package and build the workload's design and assignment,
      then exit (run.py times this from outside as setup_s)

  worker.py --workload W --seed S --seconds T --trace 0|1 --size full|quick
            --workdir DIR --result FILE [--spans FILE]
      untraced: a small warm-up rep, then reps 1, 2, ... until T seconds
      of timed work are done;
      traced: a warm-up, then rep 1 untraced and rep 1 traced in turn until
      T seconds are done, so every traced rep sees the same input.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speed
import workloads

MIN_REPS = 3


def _setup_only(workload: str) -> int:
    import design_uncertainty  # noqa: F401  (the import is what is timed)
    if workload != "steering-2q":
        from design_uncertainty import cli  # noqa: F401
    workloads.build(workload)
    return 0


def _package_record(src: Path) -> dict:
    import numpy as np

    import design_uncertainty

    location = Path(design_uncertainty.__file__).resolve()
    if src.resolve() not in location.parents:
        raise RuntimeError(f"design_uncertainty was imported from {location}, "
                           f"not from {src}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "blas": blas,
            "package_version": getattr(design_uncertainty, "__version__", None)}


def _timed(rep, prepared) -> tuple[float, dict]:
    start = time.perf_counter()
    output = workloads.run(rep, prepared)
    return time.perf_counter() - start, output


def _record(rep, traced, wall, output, kernel_before, kernel_after) -> dict:
    return {"index": rep.index, "items": rep.items, "size": rep.size,
            "traced": traced, "wall_s": wall, "output": output,
            "kernel_s": (kernel_before + kernel_after) / 2.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--size", choices=tuple(workloads.SIZES))
    parser.add_argument("--src", type=Path)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.setup_only:
        return _setup_only(args.workload)

    record = {"package": _package_record(args.src)}
    timed_size, traced_size = workloads.SIZES[args.size][args.workload]
    size = traced_size if args.trace else timed_size
    warm = workloads.Rep(args.workload, args.seed, 0, timed_size)
    workloads.run(warm, workloads.prepare(warm, args.workdir, 0))

    reps = []
    tracer = None
    if args.trace:
        from tracing import DEFAULT_MAX_ITER, Tracer
        tracer = Tracer()
    elapsed = 0.0
    kernel_before = speed.time_kernel()
    while elapsed < args.seconds or len(reps) < (2 if args.trace else MIN_REPS):
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = workloads.Rep(args.workload, args.seed,
                            1 if args.trace else len(reps) + 1, size)
        prepared = workloads.prepare(rep, args.workdir, tag=len(reps) + 1)
        if traced:
            tracer.run_id += 1
            tracer.install()
            try:
                wall, output = _timed(rep, prepared)
            finally:
                tracer.uninstall()
        else:
            wall, output = _timed(rep, prepared)
        kernel_after = speed.time_kernel()
        reps.append(_record(rep, traced, wall, output, kernel_before,
                            kernel_after))
        kernel_before = kernel_after
        elapsed += wall

    record["reps"] = reps
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from design_uncertainty import upsilon

        output_bytes = _output_bytes(reps[1]["output"])
        record["trace"] = tracer.metrics(
            items=reps[1]["items"],
            traced_walls=[speed.corrected(r["wall_s"], r["kernel_s"])
                          for r in reps if r["traced"]],
            untraced_walls=[speed.corrected(r["wall_s"], r["kernel_s"])
                            for r in reps if not r["traced"]],
            output_bytes=output_bytes,
            max_iter=getattr(upsilon, "MAX_ITER", DEFAULT_MAX_ITER))
        if args.spans is not None:
            tracer.write_spans(args.spans, run_id=1)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


def _output_bytes(output: dict) -> int:
    if "output" in output:
        return Path(output["output"]).stat().st_size
    return len(output.get("stdout", "").encode())


if __name__ == "__main__":
    sys.exit(main())
