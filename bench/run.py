"""gaussmink benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload discrete-spanning --seed 0 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  Each workload runs closed-loop: one process drives one
operation after another through the library API.  Set-up is repeated in
separate processes and its median reported.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  `--workload all` runs every workload in turn
and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("discrete-spanning", "discrete-large", "smooth-sweep", "verify-suite")
SETUP_REPEATS = 3        # set-up samples per run; the median is reported
DEADLINE_S = 170.0       # a run must end within 180 s
HERE = os.path.dirname(os.path.abspath(__file__))
# functions the workloads call first; every other traced span nests in them
ENTRY_POINTS = ("discrete.solve_constrained", "smooth.solve_homotopy", "verify.run_suite")
# one thread for BLAS: the benchmark measures one closed-loop client
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _spawn(root: str, workload: str, seed: int, seconds: float, trace: int,
           mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--mode", mode, "--root", root]
    if trace:
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        cmd += ["--trace-out", os.path.join(results, f"trace-{workload}-seed{seed}.npz")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the next process")
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=root, env={**os.environ, **WORKER_ENV},
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_spawn(root, workload, seed, seconds, 0, "setup", deadline)["setup_s"])
    res = _spawn(root, workload, seed, seconds, trace, "run", deadline)
    setups.append(res["setup_s"])

    for label, message in sorted(res["failures"].items()):
        print(f"failed: {label}: {message}")
    for message in res["wrong"]:
        print(f"WRONG: {message}")
    if trace:
        metrics = res["per_layer"]
        wall = res["traced_wall_s"]
        below = res["self_time_per_round_s"] - sum(
            metrics[f"{entry}.self_s"]["value"] for entry in ENTRY_POINTS)
        print(f"traced wall_s {wall:.6g} s per round; the listed functions' self time "
              f"covers {100 * res['self_time_per_round_s'] / wall:.1f} % of it, "
              f"{100 * below / wall:.1f} % below the entry points")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["rounds"]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(res["op_times"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        print(f"{workload}: {len(res['rounds'])} rounds, {res['attempted']} "
              f"operations in {res['elapsed_s']:.3f} s")
    return {"correct": not res["wrong"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gaussmink", "__init__.py")):
        print("bench: run from the root of a gaussmink checkout (src/gaussmink not found)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(f"{'workload':<20}{'metric':<40}{'value':>14}  unit   attempted  failed")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<20}{metric:<40}{m['value']:>14.6g}  {m['unit']:<6} "
                  f"{res['attempted']:>9} {res['failed']:>7}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
