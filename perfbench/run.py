#!/usr/bin/env python3
"""qwad benchmark: four end-to-end workloads and a traced per-layer run.

    python3 perfbench/run.py --workload {train,grad,sample,static,all}
        --seed N --seconds S --trace {0,1}

Run from the repository root (the benchmark imports ``qwad`` from
``src/``).  One process, one caller, closed loop: the next op starts
when the previous one returned.  The seed makes every input; the
library only receives the generated inputs.  Outputs are checked
against independent oracles outside the timed region; a failed check
counts as a failed op.

``--trace 0`` measures the end-to-end metrics over the whole number of
rounds whose library time comes closest to ``--seconds`` (whole rounds,
so every run sees the same mix of inputs).  Op times are normalized to
the reference machine's quiet speed by a reference kernel timed every
50 ms while the ops run (``gauge.py``).
``--trace 1`` runs a fixed number of rounds untraced, installs span
recorders around every public function of the ``qwad`` layer modules and
runs the same rounds again; it reports per-layer metrics and the drop
in throughput that tracing causes.  The last line of standard output is
the result object; the line before it carries run metadata.  A record
of each run (and the spans of a traced run) is written under
``.perfbench_out/``.

``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from the
definitions below.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Fixed BLAS/OpenMP threading (at most nproc) before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 18
SETUP_REPEATS = 9  # fresh processes timed for setup_s
TRACE_ROUNDS = {"train": 2, "grad": 3, "sample": 4, "static": 2}

WORKLOADS = {
    "train": "guarded p2 and plain p1 training epochs: Heisenberg path, embed-bound, one 16-dim register",
    "grad": "exact grad_all on the 12 bench fixtures: diff, compile and forward simulation on every call",
    "sample": "trajectory-sampled gradient on 2- and 4-qubit programs: per-trajectory cost, little embed",
    "static": "source, round trip and resource report of 10 m-scale specs: diff and compile, no simulation",
}

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
]

_CALLS = [
    "linalg.embed", "gates.gate_matrix", "semantics.program_dual_observable",
    "semantics.denote", "gradient.dual_gradient_operator",
    "gradient.derivative_program", "compiler.compile_additive",
    "autodiff.differentiate", "syntax.parse",
]
_SELF = [
    "linalg.embed", "gates.gate_matrix", "semantics.program_dual_observable",
    "semantics.denote", "semantics.observable_semantics_ancilla",
    "gradient.dual_gradient_operator", "gradient.grad_exact",
    "gradient.derivative_program", "gradient.estimate_grad_sampled",
    "compiler.compile_additive", "compiler.resource_report",
    "autodiff.differentiate", "syntax.parse", "syntax.print_source",
    "casestudy.loss_gradient", "casestudy.loss", "benchmarks.bench_unit",
]
PER_LAYER = (
    [{"name": f"{f}.calls", "unit": "count", "better": "lower"} for f in _CALLS]
    + [{"name": f"{f}.self_s", "unit": "s", "better": "lower"} for f in _SELF]
    + [
        {"name": "linalg.embed.mib_out", "unit": "MiB", "better": "lower"},
        {"name": "gradient.trajectories", "unit": "count", "better": "lower"},
        {"name": "gradient.us_per_trajectory", "unit": "us", "better": "lower"},
        {"name": "compiler.members_out", "unit": "count", "better": "lower"},
        {"name": "compiler.members_kept", "unit": "count", "better": "lower"},
        {"name": "compiler.keep_ratio", "unit": "ratio", "better": "higher"},
        {"name": "autodiff.nodes_out", "unit": "count", "better": "lower"},
        {"name": "syntax.parse.chars_per_s", "unit": "1/s", "better": "higher"},
        {"name": "trace.overhead_share", "unit": "ratio", "better": "lower"},
    ]
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


# -- measurement ---------------------------------------------------------------

@contextlib.contextmanager
def untraced(tracer):
    """Keep input generation and the oracles out of the layer metrics."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def run_rounds(wl, workloads, rounds=None, seconds=None, tracer=None,
               between_rounds=None, normalize=True):
    """Run ``rounds`` whole rounds, or the whole number of rounds whose
    library time comes closest to ``seconds``; check every unit after it
    returns.  Times are normalized by the gauge unless ``normalize`` is
    false."""
    with untraced(tracer):
        t = workloads.Tally(wl, wl.round(0))
        g = gauge.Gauge(enabled=normalize)
    while True:
        with untraced(tracer):
            units = wl.round(t.rounds)
        for unit in units:
            if tracer is not None:
                tracer.op += 1
            # Garbage left by earlier units is collected outside the
            # timed region, so a unit's time does not depend on what ran
            # before it.
            gc.collect()
            res, err = workloads.run_unit(wl, unit, g)
            if err is not None:
                print(f"op failed: {err}", file=sys.stderr)
                t.ops += wl.unit_ops(unit)
                t.failed += wl.unit_ops(unit)
                continue
            t.add(unit, res)
            with untraced(tracer):
                t.failed += wl.check(unit, res)
        t.rounds += 1
        if between_rounds is not None:
            between_rounds(t)
        if rounds is not None and t.rounds >= rounds:
            break
        if seconds is not None and t.busy * (1 + 0.5 / t.rounds) >= seconds:
            break
    with untraced(tracer):
        t.failed += wl.finish()
    g.close()
    t.gauge_readings = g.readings
    return t


def measure_setup(args) -> float:
    """Normalized time from the script's start until the first op could
    run.  The imports up to the gauge's own (numpy) are scaled by the
    gauge's first reading; the rest (the ``qwad`` imports and building
    the workload) runs under the gauge."""
    imports_s = time.perf_counter() - T_START
    g = gauge.Gauge()
    with g:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    g.close()
    return imports_s * gauge.NOMINAL_S / g.readings[0] + g.norm


def setup_time(args) -> float:
    """setup_s of a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(args, wl, workloads) -> tuple:
    # Set-up samples are spread over the run between rounds: other
    # tenants slow the machine in stretches of seconds, and samples
    # taken back to back would all land in one stretch.
    setups = []

    def between_rounds(t):
        due = math.ceil(SETUP_REPEATS * min(1.0, t.busy / args.seconds))
        while len(setups) < due:
            setups.append(setup_time(args))

    t = run_rounds(wl, workloads, seconds=args.seconds, between_rounds=between_rounds)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(args))
    lat = t.all_latencies()
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": t.ops_per_s(),
        "op_ms_p50": t.op_ms_p50(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "rounds": t.rounds,
        "busy_s": t.busy,
        "setup_s_samples": setups,
        "gauge_readings": len(t.gauge_readings),
        "gauge_ms_p50": 1e3 * statistics.median(t.gauge_readings),
        "gauge_ms_nominal": 1e3 * gauge.NOMINAL_S,
        "raw_ops_per_s": t.raw_ops_per_s(),
        "raw_op_ms_p50": t.raw_op_ms_p50(),
        "latency_samples": len(lat),
        # p90 needs at least ten samples beyond it
        "op_ms_p90": 1e3 * workloads.percentile(lat, 90) if len(lat) >= 100 else None,
        "op_ms_p50_by_class": {c: 1e3 * statistics.median(xs)
                               for c, xs in t.latencies.items() if xs},
        "latencies_by_class": t.latencies,
    }
    if t.trajectories:
        info["trajectories_per_s"] = t.rate(wl.trajectories)
    return values, t.ops, t.failed, info


def per_layer(args, wl, workloads) -> tuple:
    import tracing

    rounds = 1 if args.tiny else TRACE_ROUNDS[wl.name]
    # The gauge is off on both sides: its kernel would run inside spans.
    plain = run_rounds(wl, workloads, rounds=rounds, normalize=False)
    tr = tracing.Tracer()
    wrapped = tracing.install(tr, extra_modules=[workloads])
    t = run_rounds(wl, workloads, rounds=rounds, tracer=tr, normalize=False)
    tr.enabled = False
    plain_rate = plain.ops_per_s()
    traced_rate = t.ops_per_s()

    values = {}
    for f in _CALLS:
        values[f"{f}.calls"] = tr.stats(f)[0]
    for f in _SELF:
        values[f"{f}.self_s"] = tr.stats(f)[1]
    c = tr.counters
    traj = c["gradient.trajectories"]
    out, kept = c["compiler.members_out"], c["compiler.members_kept"]
    parse_total = tr.stats("syntax.parse")[2]
    values.update({
        "linalg.embed.mib_out": c["linalg.embed.mib_out"],
        "gradient.trajectories": traj,
        "gradient.us_per_trajectory":
            1e6 * tr.stats("gradient.estimate_grad_sampled")[1] / traj if traj else 0.0,
        "compiler.members_out": out,
        "compiler.members_kept": kept,
        "compiler.keep_ratio": kept / out if out else 0.0,
        "autodiff.nodes_out": c["autodiff.nodes_out"],
        "syntax.parse.chars_per_s": c["syntax.parse.chars"] / parse_total if parse_total else 0.0,
        "trace.overhead_share": (plain_rate - traced_rate) / plain_rate,
    })
    info = {
        "rounds": rounds,
        "functions_wrapped": wrapped,
        "spans": len(tr.span_start),
        "ops_per_s_untraced": plain_rate,
        "ops_per_s_traced": traced_rate,
        "functions": tr.table(),
    }
    return values, plain.ops + t.ops, plain.failed + t.failed, info, tr


# -- metadata ------------------------------------------------------------------

def metadata(args) -> dict:
    import numpy as np

    try:
        # the ceiling keeps git from looking above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "qwad").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


# -- entry points --------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own process; prints one summary object."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary, indent=1))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs and one round (smoke test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "qwad" / "__init__.py").is_file():
        print(f"qwad sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(json.dumps({"setup_s": measure_setup(args)}))
        return 0
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)

    tracer = None
    if args.trace:
        values, attempted, failed, info, tracer = per_layer(args, wl, workloads)
        spec = PER_LAYER
    else:
        values, attempted, failed, info = end_to_end(args, wl, workloads)
        spec = END_TO_END
    units = {d["name"]: d["unit"] for d in spec}
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")

    result = {
        "correct": failed <= wl.failure_share_allowed * attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    info.update(workload=args.workload, inputs_sha256=wl.fingerprint(),
                meta=metadata(args))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.npz")
    for bulky in ("functions", "latencies_by_class"):
        info.pop(bulky, None)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
