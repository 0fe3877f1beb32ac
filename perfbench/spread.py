#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload grad --seeds 10 [--first-seed 0]

Runs the benchmark once per seed, one run after another, and prints per
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  A benchmark is steady when every share
(``setup_s`` aside) stays well inside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values, failed, attempted = {}, 0, 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900, check=True)
        elapsed = time.monotonic() - t0
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += res["failed"]
        attempted += res["attempted"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({elapsed:.0f} s): correct={res['correct']} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()),
              flush=True)
    print(f"{args.workload}: {failed} of {attempted} ops failed")
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"{metric['name']:>14}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.3f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
