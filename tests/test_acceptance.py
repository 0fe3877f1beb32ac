"""Acceptance suite: every release criterion, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from progen import corpus, random_theta
from qwad.ast import (
    COMP_BASIS,
    Abort,
    Case,
    QVar,
    Register,
    Seq,
    Sum,
    Unitary,
    qvar_set,
)
from qwad.autodiff import differentiate
from qwad.benchmarks import BenchSpec, all_specs, bench_unit
from qwad.casestudy import TrainConfig, build_p1, build_p2, train
from qwad.compiler import compile_additive, nna, occurrence_count, resource_report
from qwad.gates import (
    AXES,
    GadgetRotation,
    LiteralGate,
    MatrixLiteral,
    Rotation,
    rotation_matrix,
)
from qwad.gradient import (
    derivative_program,
    estimate_grad_sampled,
    finite_difference,
    grad_exact,
)
from qwad.linalg import (
    Observable,
    PAULI_Z,
    DensityOperator,
    random_density,
    random_observable,
    random_unitary,
)
from qwad.semantics import denote, multisets_match, trace_enumerate
from qwad.syntax import parse, print_program


def report(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num:>2}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


SIMPLE_CASE = parse(
    "qubit q1\nparams 1\n"
    "case M[q1] =\n"
    "  0 -> q1 := Rx(th1)[q1]; q1 := Ry(th1)[q1]\n"
    "  1 -> q1 := Rz(th1)[q1]\n"
    "end"
)


def test_c01_derivative_soundness():
    """Transformed-and-compiled derivatives match finite differences on a
    generated corpus, for every parameter and random read-out setups."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    programs = corpus(2026, 50)
    worst = 0.0
    checked = 0
    for p, reg, k in programs:
        dim = reg.dim
        for j in range(1, k + 1):
            dp = derivative_program(p, j)
            for _ in range(5):
                theta = random_theta(rng, k)
                o = random_observable(rng, dim)
                rho = random_density(rng, dim)
                g = grad_exact(p, theta, j, o, rho, reg, dp)
                fd = finite_difference(p, theta, j, o, rho, register=reg)
                worst = max(worst, abs(g - fd))
                checked += 1
    report(
        1, "derivative soundness vs finite differences", worst <= 1e-5,
        f"{len(programs)} programs, {checked} checks, max |diff| {worst:.2e}, "
        f"{time.time() - t0:.1f}s",
    )


def test_c02_denotation_equals_summed_runs():
    """The forward semantics is the sum of all run outcomes."""
    rng = np.random.default_rng(202)
    worst = 0.0
    programs = corpus(2027, 50)
    for p, reg, k in programs:
        for _ in range(2):
            theta = random_theta(rng, k)
            rho = random_density(rng, reg.dim)
            want = denote(p, theta, rho, reg).mat
            got = sum(s.mat for s in trace_enumerate(p, theta, rho, reg))
            worst = max(worst, float(np.linalg.norm(got - want)))
    report(
        2, "denotation equals summed run multiset", worst <= 1e-9,
        f"{len(programs)} programs, max Frobenius gap {worst:.2e}",
    )


def test_c03_compiled_multiset_equals_additive_runs():
    """Nonzero runs of an additive program match the union of its
    compiled members' nonzero runs, as multisets."""
    rng = np.random.default_rng(303)
    programs = corpus(2028, 50, additive=True)
    ok = True
    for p, reg, k in programs:
        theta = random_theta(rng, k)
        rho = random_density(rng, reg.dim)
        direct = trace_enumerate(p, theta, rho, reg, drop_zero=True)
        via_members = []
        for m in compile_additive(p).members:
            via_members += trace_enumerate(m, theta, rho, reg, drop_zero=True)
        ok = ok and multisets_match(direct, via_members, tol=1e-9)
    # the generic guarded-choice example with random unitaries
    q1, q2 = QVar("q1"), QVar("q2")
    reg = Register.of(q1, q2)
    for _ in range(5):
        mk = lambda: Unitary(
            LiteralGate(MatrixLiteral.of(random_unitary(rng, 2))), Register.of(q2)
        )
        p = Case(Register.of(q1), COMP_BASIS, (Sum(mk(), mk()), mk()))
        rho = random_density(rng, 4)
        direct = trace_enumerate(p, [], rho, reg, drop_zero=True)
        via = []
        for m in compile_additive(p).members:
            via += trace_enumerate(m, [], rho, reg, drop_zero=True)
        ok = ok and len(compile_additive(p).members) == 2
        ok = ok and multisets_match(direct, via, tol=1e-9)
    report(3, "compiled multiset reproduces additive runs", ok,
           f"{len(programs)} additive programs + guarded-choice instances")


def test_c04_rotation_derivative_identity():
    """d/dtheta exp(-i theta/2 sigma) equals half the pi-shifted gate."""
    h = 1e-6
    worst = 0.0
    for axis in AXES:
        for theta in (0.0, np.pi / 7, 1.3):
            fd = (rotation_matrix(axis, theta + h)
                  - rotation_matrix(axis, theta - h)) / (2 * h)
            shifted = 0.5 * rotation_matrix(axis, theta + np.pi)
            worst = max(worst, float(np.max(np.abs(fd - shifted))))
    report(4, "shifted-gate derivative identity for all six gates",
           worst <= 1e-9, f"max entry error {worst:.2e}")


def test_c05_nonaborting_count_bounded_by_occurrences():
    """#non-aborting derivative members <= occurrence count, everywhere."""
    ok = True
    checked = 0
    for p, reg, k in corpus(2029, 50):
        for j in range(1, k + 1):
            checked += 1
            if nna(differentiate(p, j).transformed) > occurrence_count(p, j):
                ok = False
    for spec in all_specs(scales=("s",)):
        rep = resource_report(bench_unit(spec).body)
        for j, oc in rep.oc.items():
            checked += 1
            if rep.nna[j] > oc:
                ok = False
    exact = (
        nna(differentiate(SIMPLE_CASE.body, 1).transformed) == 2
        and occurrence_count(SIMPLE_CASE.body, 1) == 2
    )
    report(5, "derivative count bounded by occurrence count",
           ok and exact, f"{checked} (program, parameter) pairs; guarded example 2/2")


def test_c06_guarded_example_compiles_to_the_two_programs():
    """The worked guarded example compiles to exactly its two published
    case programs, compared after printing."""
    d = differentiate(SIMPLE_CASE.body, 1)
    cm = compile_additive(d.transformed, d.register)
    q1, a = QVar("q1"), d.ancilla
    rq, ra = Register.of(q1), Register.of(a, q1)
    gx, gy, gz = (Unitary(GadgetRotation(ax, 1), ra) for ax in ("X", "Y", "Z"))
    px, py = (Unitary(Rotation(ax, 1), rq) for ax in ("X", "Y"))
    expected = (
        Case(rq, COMP_BASIS, (Seq(gx, py), gz)),
        Case(rq, COMP_BASIS, (Seq(px, gy), Abort(ra))),
    )
    got = [print_program(m) for m in cm.members]
    want = [print_program(m) for m in expected]
    report(6, "guarded example compiles to its two case programs",
           got == want, f"{len(cm.members)} members")


def test_c07_model_derivative_closed_forms():
    """Compiled model derivatives: gadgetized first block for its own
    parameters, all-abort for foreign ones, guard preserved."""

    def members(p, j):
        d = differentiate(p, j)
        return compile_additive(d.transformed, d.register).members

    p1, p2 = build_p1(), build_p2()
    ok = True
    # first-block parameter: single member, gadget replaces the gate
    got = members(p1, 1)
    ok &= len(got) == 1
    text = print_program(got[0])
    ok &= text.startswith("A1,q1 := Rx'(th1)[A1,q1]")
    ok &= "th24" in text and "abort" not in text
    # a parameter the program never uses: the single abort program
    got = members(p1, 25)
    ok &= len(got) == 1 and print_program(got[0]) == "abort[A25,q1,q2,q3,q4]"
    # guarded-block parameter of the controlled model: one case program,
    # gadgetized block in arm 0, abort in the arm that cannot contribute
    got = members(p2, 13)
    ok &= len(got) == 1 and isinstance(got[0], Seq)
    guard = got[0].second
    ok &= isinstance(guard, Case)
    arm0 = print_program(guard.branches[0])
    ok &= arm0.startswith("A13,q1 := Rx'(th13)[A13,q1]")
    ok &= isinstance(guard.branches[1], Abort)
    report(7, "compiled model-derivative closed forms", bool(ok))


def test_c08_control_flow_separates_the_classifier():
    """Training: the guarded model fits the parity-style label, the
    unguarded one plateaus."""
    t0 = time.time()
    cfg = TrainConfig(learning_rate=0.1, epochs=1000, seed=42)
    r2 = train(build_p2(), cfg)
    r1 = train(build_p1(), cfg)
    ok = r1.final_loss >= 0.45 and r2.final_loss <= 0.05
    report(
        8, "control-flow classifier separation", ok,
        f"guarded {r2.final_loss:.2e} <= 0.05, plain {r1.final_loss:.3f} >= 0.45, "
        f"{time.time() - t0:.0f}s",
    )


def test_c09_sampling_estimator_concentrates():
    """Trajectory estimator lands within delta of the exact gradient in
    at least 95 of 100 seeded runs at the pinned shot budget."""
    t0 = time.time()
    q1, q2 = QVar("q1"), QVar("q2")
    reg = Register.of(q1, q2)
    bench = Seq(
        Unitary(Rotation("X", 1), Register.of(q1)),
        Case(Register.of(q1), COMP_BASIS,
             (Unitary(Rotation("Y", 1), Register.of(q2)),
              Unitary(Rotation("Z", 2), Register.of(q2)))),
    )
    obs = Observable(np.kron(PAULI_Z, PAULI_Z))
    theta = [np.pi / 3, 0.4]
    rho = DensityOperator.basis(4, 0)
    delta = 0.05
    dp = derivative_program(bench, 1)
    exact = grad_exact(bench, theta, 1, obs, rho, reg, dp)
    hits = 0
    for seed in range(100):
        est = estimate_grad_sampled(
            bench, theta, 1, obs, rho, delta, seed=seed, register=reg, dp=dp
        )
        hits += abs(est - exact) <= delta
    report(9, "sampled gradient concentration", hits >= 95,
           f"{hits}/100 within {delta}, m={dp.count}, {time.time() - t0:.0f}s")


def test_c10_benchmarks_pass_the_property_pack():
    """Every small benchmark instance passes the semantic checks above;
    larger ones get the static bound and full report columns."""
    t0 = time.time()
    rng = np.random.default_rng(1010)
    ok = True
    for spec in all_specs(scales=("s",)):
        u = bench_unit(spec).body
        reg = qvar_set(u)
        k = max([g.gate.param_index or 0 for g in _unitaries(u)] + [1])
        theta = random_theta(rng, k)
        rho = random_density(rng, reg.dim)
        # run-sum identity
        want = denote(u, theta, rho, reg).mat
        got = sum(s.mat for s in trace_enumerate(u, theta, rho, reg))
        ok &= float(np.linalg.norm(got - want)) <= 1e-9
        # derivative soundness on a sample of parameters
        for j in {1, k // 2 or 1, k}:
            o = random_observable(rng, reg.dim)
            g = grad_exact(u, theta, j, o, rho, reg)
            fd = finite_difference(u, theta, j, o, rho, register=reg)
            ok &= abs(g - fd) <= 1e-5
        rep = resource_report(u)
        ok &= all(rep.nna[j] <= rep.oc[j] for j in rep.oc)
    # static checks and report columns for instances past the
    # exact-simulation cap
    import json

    for scale in ("m", "l"):
        for family in ("qnn", "vqe", "qaoa"):
            spec = BenchSpec(family, scale, "while")
            rep = resource_report(bench_unit(spec).body)
            ok &= rep.headline_nna <= rep.headline_oc
            doc = json.loads(rep.to_json())
            ok &= all(
                col in doc
                for col in ("oc", "nna", "gates", "lines", "layers", "qubits")
            )
    report(10, "benchmark instances pass the property pack", bool(ok),
           f"12 small simulated + 6 large static, {time.time() - t0:.0f}s")


def _unitaries(p):
    if isinstance(p, Unitary):
        yield p
    for attr in ("first", "second", "left", "right", "body"):
        child = getattr(p, attr, None)
        if child is not None:
            yield from _unitaries(child)
    for b in getattr(p, "branches", ()):
        yield from _unitaries(b)
