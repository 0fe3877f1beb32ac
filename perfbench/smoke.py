#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on the smallest inputs.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json is what ``run.py`` defines; that every
workload, untraced and traced, prints a result line whose metric names
and units match BENCHMARK.json and whose checks pass; that one seed
always generates the same inputs and another seed different ones; that
two traced runs of one seed give identical counts; and that the
benchmark fails, printing no result, without the library sources next
to it.  Exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "MiB")


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(spec == run.benchmark_json(), "BENCHMARK.json matches run.py")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workload names match BENCHMARK.json")

    for name, cls in workloads.WORKLOADS.items():
        a, b, c = (cls(s, tiny=True).fingerprint() for s in (1, 1, 2))
        check(a == b and a != c, f"{name}: inputs repeat per seed and differ across seeds")

        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            args = ("--workload", name, "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace), "--tiny")
            res = result_of(bench(*args))
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace {trace}: result keys")
            check(res["correct"] and res["attempted"] >= 1,
                  f"{name} trace {trace}: outputs correct ({res['failed']} of {res['attempted']} failed)")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            check(got == want, f"{name} trace {trace}: metric names and units")
            check(all(isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
                      for m in res["metrics"].values()), f"{name} trace {trace}: numeric values")
            if trace:
                again = result_of(bench(*args))
                counts = [n for n, u in want.items() if u in COUNT_UNITS]
                check(all(res["metrics"][n]["value"] == again["metrics"][n]["value"] for n in counts),
                      f"{name}: traced counts repeat exactly")

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "grad", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without the sources the benchmark fails and prints no result")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
