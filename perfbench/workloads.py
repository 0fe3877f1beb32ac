"""The four benchmark workloads.

Each workload is built from a seed and hands the library only the inputs
it generates from that seed.  Its work is cut into rounds of *units*; a
unit is one timed call into the library and completes one or more ops.
Every unit's inputs depend only on (seed, round, position in round), so
the same seed replays the same inputs whatever the run length.  Each
workload checks its outputs against an oracle that does not share the
timed path, outside the timed region.

Workloads reach library functions through their modules
(``gradient.grad_all``, not a bare ``grad_all``) so the traced run sees
every call.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qwad import benchmarks, casestudy, compiler, gradient, linalg, semantics, syntax
from qwad.ast import COMP_BASIS, Case, QVar, Register, Seq, Unitary
from qwad.errors import QwadError
from qwad.gates import Rotation

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "programs" / "bench"


@dataclass
class UnitResult:
    ops: int  # ops the unit completed
    seconds: float  # time inside the library call, normalized (gauge.py)
    latencies: list  # normalized per-op latencies (s) that can be observed
    raw_seconds: float  # time inside the library call as measured
    value: object = None


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def _pauli_string(rng, n: int) -> linalg.Observable:
    """A random non-identity Pauli string on n qubits (norm 1)."""
    paulis = (linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z)
    mat = np.ones((1, 1), complex)
    for _ in range(n):
        mat = np.kron(mat, paulis[int(rng.integers(3))])
    return linalg.Observable(mat)


class Workload:
    name = ""
    failure_share_allowed = 0.0

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed

    def round(self, r: int) -> list:
        """The units of round r, with their inputs."""
        raise NotImplementedError

    def run(self, unit, gauge) -> UnitResult:
        with gauge:
            value = self.call(unit)
        return UnitResult(1, gauge.norm, [gauge.norm], gauge.raw, value)

    def call(self, unit):
        raise NotImplementedError

    def check(self, unit, result: UnitResult) -> int:
        """Failed ops among the unit's ops."""
        raise NotImplementedError

    def finish(self) -> int:
        """Failed ops found by checks that need the whole run."""
        return 0

    def unit_ops(self, unit) -> int:
        return 1

    def unit_class(self, unit) -> str:
        """The input class a unit belongs to; every round holds the same
        classes, so per-class medians compare across runs and seeds."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Digest of the inputs of the first round."""
        h = hashlib.sha256()
        for unit in self.round(0):
            h.update(_describe(unit).encode())
        return h.hexdigest()


def _describe(obj) -> str:
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
    if isinstance(obj, (linalg.DensityOperator, linalg.Observable)):
        return _describe(obj.mat)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_describe(v) for v in obj) + "]"
    return repr(obj)


# -- train ---------------------------------------------------------------------

class Train(Workload):
    """Full-batch training of the guarded (p2) and plain (p1) classifier.

    A round is one ``train`` call on p2 for 2C epochs and one on p1 for C
    epochs, each from its own seeded initialization; an op is one epoch.
    Epoch latencies come from the gaps between ``progress`` callbacks.
    The first epoch of each call also holds the call's own set-up
    (initial loss, derivative programs), so it counts towards ops and
    time but not towards latencies.  p2, the paper's model, gets two
    thirds of the epochs.
    """

    name = "train"
    GRAD_TOL = 1e-9
    LOSS_TOL = 1e-9

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.chunk = 2 if tiny else 6
        self.models = {"p2": casestudy.build_p2(), "p1": casestudy.build_p1()}
        self.k = {"p2": 36, "p1": 24}
        self.derivatives = {
            m: [gradient.derivative_program(p, j) for j in range(1, self.k[m] + 1)]
            for m, p in self.models.items()
        }
        self.obs = casestudy.readout_observable()
        self.data = list(casestudy.Dataset4.full())
        self.states = {z: casestudy.input_state(z) for z, _ in self.data}
        self.first = {}
        self.last = {}

    def round(self, r):
        units = []
        for i, (model, epochs) in enumerate((("p2", 2 * self.chunk), ("p1", self.chunk))):
            s = int(_rng(self.seed, r, i).integers(2**31))
            units.append((model, casestudy.TrainConfig(epochs=epochs, seed=s)))
        return units

    def unit_ops(self, unit):
        return unit[1].epochs

    def unit_class(self, unit):
        return unit[0]

    def run(self, unit, gauge):
        model, cfg = unit
        stamps = []
        with gauge:
            res = casestudy.train(
                self.models[model], cfg, progress=lambda e, v: stamps.append(gauge.clock())
            )
        return UnitResult(cfg.epochs, gauge.norm, list(np.diff(stamps)), gauge.raw, res)

    def _forward(self, model, theta):
        """Residual per input by forward (Schroedinger) simulation."""
        p = self.models[model]
        return {
            z: semantics.observable_semantics(p, self.obs, self.states[z], theta, casestudy.REGISTER) - y
            for z, y in self.data
        }

    def check(self, unit, result):
        model, cfg = unit
        res = result.value
        self.first.setdefault(model, casestudy.init_theta(self.k[model], cfg))
        self.last[model] = res.theta
        residual = self._forward(model, res.theta)
        want = sum(0.5 * r * r for r in residual.values())
        return int(abs(res.final_loss - want) > self.LOSS_TOL)

    def finish(self):
        """loss_gradient against the member-by-member grad_exact sum, at
        the first epoch of the run and at the last, for each model."""
        failed = 0
        for model in self.first:
            for theta in (self.first[model], self.last[model]):
                got = casestudy.loss_gradient(
                    self.models[model], theta, self.derivatives[model]
                )
                failed += int(np.max(np.abs(got - self._oracle(model, theta))) > self.GRAD_TOL)
        return failed

    def _oracle(self, model, theta):
        # The loss gradient is sum_z r_z * d f_z; f_z is linear in the
        # input state, so the sum folds into one positive and one
        # negative mixture of basis states, each a valid density.
        residual = self._forward(model, theta)
        parts = []
        for sign in (1, -1):
            ws = {z: sign * r for z, r in residual.items() if sign * r > 0}
            total = sum(ws.values())
            if total > 0:
                mat = sum(w / total * self.states[z].mat for z, w in ws.items())
                parts.append((sign * total, linalg.DensityOperator(mat)))
        p = self.models[model]
        return np.array([
            sum(
                scale * gradient.grad_exact(p, theta, dp.param_index, self.obs, rho, casestudy.REGISTER, dp)
                for scale, rho in parts
            )
            for dp in self.derivatives[model]
        ])


# -- grad ----------------------------------------------------------------------

class Grad(Workload):
    """Exact gradient over every parameter of each bench fixture.

    A round is one ``grad_all`` per fixture (12 ops) on a seeded theta,
    mixed input state and observable.  Two seeded parameters per op are
    checked against central finite differences of the forward semantics.
    """

    name = "grad"
    FD_TOL = 1e-5

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        paths = sorted(FIXTURES.glob("*.qw"))
        if not paths:
            raise FileNotFoundError(f"no fixtures under {FIXTURES}")
        fixtures = [(p.stem, syntax.parse(p.read_text())) for p in paths]
        if tiny:
            fixtures = [(n, u) for n, u in fixtures if u.register.dim <= 8]
        self.names = [n for n, _ in fixtures]
        self.units = [u for _, u in fixtures]

    def round(self, r):
        units = []
        for i, u in enumerate(self.units):
            rng = _rng(self.seed, r, i)
            theta = rng.uniform(0, 2 * np.pi, u.k)
            rho = linalg.random_density(rng, u.register.dim)
            o = linalg.random_observable(rng, u.register.dim)
            probe = sorted(int(j) + 1 for j in rng.choice(u.k, size=min(2, u.k), replace=False))
            units.append((i, theta, rho, o, probe))
        return units

    def unit_class(self, unit):
        return self.names[unit[0]]

    def call(self, unit):
        i, theta, rho, o, _ = unit
        u = self.units[i]
        return gradient.grad_all(u.body, theta, o, rho, u.register)

    def check(self, unit, result):
        i, theta, rho, o, probe = unit
        u = self.units[i]
        rep = result.value
        if len(rep.values) != u.k or any(n > c for n, c in zip(rep.nna, rep.oc)):
            return 1
        for j in probe:
            fd = gradient.finite_difference(u.body, theta, j, o, rho, register=u.register)
            if abs(rep.values[j - 1] - fd) > self.FD_TOL:
                return 1
        return 0


# -- sample --------------------------------------------------------------------

def c09_program():
    """The two-qubit guarded program of the sampling acceptance check."""
    q1, q2 = QVar("q1"), QVar("q2")
    body = Seq(
        Unitary(Rotation("X", 1), Register.of(q1)),
        Case(Register.of(q1), COMP_BASIS,
             (Unitary(Rotation("Y", 1), Register.of(q2)),
              Unitary(Rotation("Z", 2), Register.of(q2)))),
    )
    return body, Register.of(q1, q2), 2


class Sample(Workload):
    """Trajectory-sampled gradient of parameter 1 at delta 0.1, c 10.

    A round runs the c09 program and the qnn_s_i fixture once each (three
    and five qubits with the ancilla, both with two derivative members,
    so 4 000 trajectories per op).  Each op has a seeded theta,
    basis input, Pauli-string observable and sampler seed.  Delta 0.1
    rather than the acceptance check's 0.05 keeps ops short, so a run
    holds a few dozen of each; the work per trajectory is the same.
    An op fails when it misses grad_exact by more than delta; the shot
    budget guarantees that for at least 95% of ops.
    """

    name = "sample"
    DELTA = 0.1
    C = 10.0
    failure_share_allowed = 0.05

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.delta = 0.4 if tiny else self.DELTA
        qnn = syntax.parse((FIXTURES / "qnn_s_i.qw").read_text())
        self.programs = {
            "c09": c09_program(),
            "qnn_s_i": (qnn.body, qnn.register, qnn.k),
        }
        self.shots = {
            name: gradient.shot_count(gradient.derivative_program(body, 1).count, self.delta, self.C)
            for name, (body, _, _) in self.programs.items()
        }

    def round(self, r):
        units = []
        for i, name in enumerate(("c09", "qnn_s_i")):
            _, reg, k = self.programs[name]
            rng = _rng(self.seed, r, i)
            theta = rng.uniform(0, 2 * np.pi, k)
            rho = linalg.DensityOperator.basis(reg.dim, int(rng.integers(reg.dim)))
            o = _pauli_string(rng, len(reg))
            units.append((name, theta, rho, o, int(rng.integers(2**62))))
        return units

    def trajectories(self, unit) -> int:
        return self.shots[unit[0]]

    def unit_class(self, unit):
        return unit[0]

    def call(self, unit):
        name, theta, rho, o, s = unit
        body, reg, _ = self.programs[name]
        return gradient.estimate_grad_sampled(
            body, theta, 1, o, rho, self.delta, s, self.C, register=reg
        )

    def check(self, unit, result):
        name, theta, rho, o, _ = unit
        body, reg, _ = self.programs[name]
        exact = gradient.grad_exact(body, theta, 1, o, rho, reg)
        return int(not abs(result.value - exact) <= self.delta)


# -- static --------------------------------------------------------------------

class Static(Workload):
    """Source generation, round trip and resource report of the m-scale
    benchmark instances.

    An op is ``bench_unit`` -> ``print_source`` -> ``parse`` ->
    ``resource_report`` for one spec: differentiation and compilation
    for every parameter, no simulation (12 to 18 qubits).  A round covers
    the specs in a seeded order.  ``qnn_m_i`` and ``qnn_m_w`` (2.7 and
    1.8 s an op, more than twice the rest of a round together) are left
    out, so that a run holds several rounds; ``vqe_m_i``/``vqe_m_w`` and
    ``qaoa_m_i``/``qaoa_m_w`` still run the ``if``/``while`` paths.
    """

    name = "static"
    LONG = ("qnn_m_i", "qnn_m_w")

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.specs = [s for s in benchmarks.all_specs(scales=("m",)) if s.name not in self.LONG]
        if tiny:
            self.specs = [s for s in self.specs if s.control in ("basic", "shared")]

    def round(self, r):
        order = _rng(self.seed, r).permutation(len(self.specs))
        return [self.specs[i] for i in order]

    def unit_class(self, spec):
        return spec.name

    def call(self, spec):
        unit = benchmarks.bench_unit(spec)
        text = syntax.print_source(unit)
        parsed = syntax.parse(text)
        return unit, parsed, compiler.resource_report(parsed.body)

    def check(self, spec, result):
        unit, parsed, rep = result.value
        if parsed != unit:
            return 1
        if sorted(rep.oc) != sorted(rep.nna) or any(rep.nna[j] > rep.oc[j] for j in rep.oc):
            return 1
        if spec.control == "basic" and any(
            rep.nna[j] != 1 or rep.oc[j] != 1 for j in rep.oc
        ):
            return 1
        return 0


WORKLOADS = {w.name: w for w in (Train, Grad, Sample, Static)}


def run_unit(wl: Workload, unit, gauge):
    """Run one unit; a library error fails all of its ops."""
    try:
        return wl.run(unit, gauge), None
    except QwadError as exc:
        return None, exc


def _geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


class Tally:
    """What a stretch of whole rounds did, kept per input class.

    Every time here is normalized by the gauge (gauge.py), and every
    figure is built from per-class medians, so neither a slow stretch of
    the machine nor a single op caught by a preemption moves it:

    * ``op_ms_p50``: each class's median op latency, combined over the
      classes by geometric mean, so every class weighs the same whatever
      its ops cost;
    * ``ops_per_s``: the ops of one round over the time the round takes
      with every unit at its class's median unit time.

    ``raw_ops_per_s`` (ops over measured library time) and
    ``raw_op_ms_p50`` describe the run as it went, unnormalized.
    """

    def __init__(self, wl: Workload, round_units: list):
        self.wl = wl
        self.round_units = round_units
        self.rounds = 0
        self.ops = 0
        self.failed = 0
        self.busy = 0.0  # measured library time
        self.trajectories = 0
        self.latencies = {}
        self.durations = {}
        self.raw_durations = {}

    def add(self, unit, res: UnitResult) -> None:
        cls = self.wl.unit_class(unit)
        self.busy += res.raw_seconds
        self.ops += res.ops
        self.latencies.setdefault(cls, []).extend(res.latencies)
        self.durations.setdefault(cls, []).append(res.seconds)
        self.raw_durations.setdefault(cls, []).append(res.raw_seconds / res.ops)
        if hasattr(self.wl, "trajectories"):
            self.trajectories += self.wl.trajectories(unit)

    def all_latencies(self) -> list:
        return [x for xs in self.latencies.values() for x in xs]

    def op_ms_p50(self) -> float:
        return 1e3 * _geomean(statistics.median(xs) for xs in self.latencies.values() if xs)

    def raw_op_ms_p50(self) -> float:
        return 1e3 * _geomean(statistics.median(xs) for xs in self.raw_durations.values())

    def raw_ops_per_s(self) -> float:
        return self.ops / self.busy

    def rate(self, count) -> float:
        """Per-second rate of a per-unit count over one round at each
        class's median normalized unit time."""
        classes = [self.wl.unit_class(u) for u in self.round_units]
        total = sum(count(u) for u in self.round_units)
        return total / sum(statistics.median(self.durations[c]) for c in classes)

    def ops_per_s(self) -> float:
        return self.rate(self.wl.unit_ops)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]
