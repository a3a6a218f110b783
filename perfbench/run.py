"""Benchmark of the design-uncertainty pipeline: state -> outcome
probabilities -> index of coincidence beta -> maximal root Y -> entropy
bounds and steering checks.

Run from the root of a checkout:

  python3 perfbench/run.py --workload audit-oct --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all          # every workload, both modes

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS and OpenMP stay at one thread here and in every child process
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"          # scratch files of running benchmarks
OUT = HERE / "out"             # span dumps of traced runs

DEFAULT_SEED = 1
HELDOUT_SEED = 4057            # for rechecking a claim; never tune on it
DEFAULT_SECONDS = 15
SETUP_SPAWNS = 11              # timed cold starts per run, after one warm-up
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def worker_cmd(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def measure_setup(workload: str) -> list[float]:
    """Wall times of fresh processes that import the package and build the
    workload's design and assignment.  The first spawn (which may compile
    bytecode) is discarded.  These are not corrected for machine speed:
    process start-up did not follow the reference kernel (see README.md)."""
    cmd = worker_cmd("--setup-only", "--workload", workload)
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantize the measurement; a timer kills a hung child instead
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up process exited with {code}")
        if i:
            times.append(wall)
    return times


def machine_record() -> dict:
    record = {"python": platform.python_version(),
              "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "cpu_model": None, "l2": None, "l3": None,
              "thread_env": THREAD_ENV,
              "git_commit": _git_commit()}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            record[f"l{level}"] = size
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return record


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_one(workload: str, seed: int, seconds: float, trace: int,
            size: str) -> int:
    """Measure one workload, check its outputs and print the result."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        setup = measure_setup(workload) if not trace else []
        result_path = workdir / "result.json"
        cmd = worker_cmd("--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace),
                         "--size", size, "--src", str(SRC),
                         "--workdir", str(workdir), "--result", str(result_path))
        if trace:
            OUT.mkdir(exist_ok=True)
            cmd += ["--spans", str(OUT / f"spans-{workload}.jsonl")]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        with open(result_path) as fh:
            record = json.load(fh)

        check = oracles.CHECKS[workload]
        attempted = failed = 0
        problems: list[str] = []
        for rep in record["reps"]:
            spec = workloads.Rep(workload, seed, rep["index"], rep["size"])
            bad, why = check(spec, rep["output"])
            attempted += spec.items
            failed += bad
            problems += why
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in record["reps"] if not r["traced"]]
    if trace:
        metrics = {name: {"value": record["trace"][name], "unit": unit}
                   for name, unit in tracing.per_layer_units().items()}
    else:
        values = {"items_per_s": statistics.median(
                      r["items"] / speed.corrected(r["wall_s"], r["kernel_s"])
                      for r in untraced),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    correct = failed == 0 and not problems
    print(f"workload: {workload}  seed: {seed}  trace: {trace}  size: {size}  "
          f"reps: {len(record['reps'])}  "
          f"timed items per rep: {record['reps'][0]['items']}")
    print("machine: " + json.dumps(dict(machine_record(), **record["package"])))
    if not trace:
        raw_rate = statistics.median(r["items"] / r["wall_s"] for r in untraced)
        kernel = statistics.median(r["kernel_s"] for r in untraced)
        print(f"uncorrected items_per_s {raw_rate:.6g} 1/s, reference kernel "
              f"{kernel * 1e3:.4g} ms (reference {speed.REFERENCE_S * 1e3:g} ms)")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<48} {failed / attempted:>16.6g} ratio")
    for why in problems[:20]:
        print(f"CHECK FAILED: {why}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, size: str) -> int:
    """Every workload, untraced then traced, each in its own run.py."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--size", size]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=180)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                status = 1
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                merged["correct"] = False
                print(f"{workload} trace={trace}: no result")
                continue
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return status if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; recheck "
                             f"claims on the held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full", help="'quick' is the smoke-test size")
    args = parser.parse_args(argv)

    if not (SRC / "design_uncertainty" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from the root of "
              f"a design-uncertainty checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.size)
    try:
        return run_one(args.workload, args.seed, args.seconds, args.trace,
                       args.size)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
