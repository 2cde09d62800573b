"""One workload process: set up, then run whole rounds for the given time.

Started by run.py, which passes the wall-clock time at which it spawned this
process.  Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _import_program(root: str):
    """Import gaussmink from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gaussmink
    if not os.path.realpath(gaussmink.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"gaussmink was imported from {gaussmink.__file__}, not {src}")
    return gaussmink


def _cli_cold_start() -> None:
    """What every CLI invocation pays: parse arguments, run a command."""
    from gaussmink import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["constants", "--n", "2", "--p", "1"])
    if code != 0 or "r_half=1.17741002" not in out.getvalue():
        raise RuntimeError(f"gaussmink constants misbehaved: exit {code}, {out.getvalue()!r}")


def run_rounds(workload, seconds: float) -> dict:
    """Repeat the workload's operations in whole rounds until `seconds` of
    operation time have passed.  Checks run between operations, untimed."""
    import checks
    from gaussmink.errors import SolverStallError

    refusals = (SolverStallError, ValueError)   # how the program reports a stall or bad input
    clock = time.perf_counter
    rounds, op_times = [], []
    attempted = failed = 0
    failures: dict[str, str] = {}
    wrong: list[str] = []
    while True:
        results: dict = {}
        spent = 0.0
        for op in workload.ops:
            start = clock()
            try:
                out = op.run()
            except Exception as exc:  # a failing operation is counted, not fatal
                elapsed = clock() - start
                failed += 1
                if op.label not in failures:
                    failures[op.label] = f"{type(exc).__name__}: {exc}"
                    if not isinstance(exc, refusals):
                        traceback.print_exc(file=sys.stderr)
                out = None
            else:
                elapsed = clock() - start
            attempted += 1
            spent += elapsed
            op_times.append(elapsed)
            if out is not None:
                results[op.label] = out
                try:
                    op.check(out, results)
                except checks.CheckFailed as exc:
                    wrong.append(f"{op.label}: {exc}")
        rounds.append(spent)
        if sum(rounds) >= seconds:
            break
    return {"rounds": rounds, "op_times": op_times, "attempted": attempted,
            "failed": failed, "failures": failures, "wrong": wrong}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    _import_program(args.root)
    _cli_cold_start()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup.check(workload.warmup.run(), {})
    setup_s = time.time() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    started = time.perf_counter()
    result = run_rounds(workload, args.seconds)
    result["elapsed_s"] = time.perf_counter() - started
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        rounds = len(result["rounds"])
        result["per_layer"] = tracer.metrics(rounds)
        result["traced_wall_s"] = statistics.median(result["rounds"])
        result["self_time_per_round_s"] = tracer.self_time_total() / rounds
        if args.trace_out:
            tracer.save(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
