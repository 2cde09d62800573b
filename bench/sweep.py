"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 bench/sweep.py --workloads all --seeds 10 --first-seed 0 --label set1

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json, and
the failed share of operations.  Raw results go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--label", default="sweep")
    args = parser.parse_args(argv)
    chosen = names if args.workloads == "all" else args.workloads.split(",")

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    raw = {}
    for name in chosen:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        raw[name] = runs
    with open(os.path.join(out_dir, f"{args.label}.json"), "w") as fh:
        json.dump(raw, fh, indent=1)

    print("\n| workload | metric | median | Q1 | Q3 | spread | bound | failed share |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for name, runs in raw.items():
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs})
        correct = all(r["correct"] for r in runs)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} | {m['bound']} | {' '.join(shares)}"
                  f"{'' if correct else ' WRONG'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
