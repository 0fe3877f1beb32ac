"""Gradients of program read-outs: exact, finite-difference, sampled.

:func:`grad_adjoint` gives every exact partial of a plain program at
once, by reverse mode on the base register: one forward sweep of the
state and one backward (Heisenberg) sweep of the observable, adding the
shift-rule term of each parameterized rotation on the way back.  It
needs no ancilla and no derivative program; :func:`grad_all` uses it.

:func:`grad_exact` runs the derivative pipeline end to end for one
parameter: transform the program, compile the result to plain members,
then sum the ancilla-Z read-out of every member on the ancilla-extended
input.  Those members are what a device would run, and this path is the
oracle the adjoint sweep is tested against.

The sampled path mimics hardware execution: it draws a member uniformly
at random, unravels it as a pure-state trajectory (measurements and the
initialization channel sample one Kraus branch by its probability), and
averages ``members * <psi| Z (x) O |psi>`` over ``ceil(c m^2 / delta^2)``
trajectories.  Every trajectory owns a counter-based RNG stream keyed by
(seed, trajectory index), so results do not depend on how trajectories
are scheduled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ast import QVar, Register, essentially_aborts, max_param_index
from .autodiff import differentiate
from .compiler import compile_additive, occurrence_count
from .errors import ValidationError
from .linalg import (
    HERM_TOL,
    DensityOperator,
    Observable,
    PAULI_Z,
    check_sim_dim,
    dagger,
    herm_defect,
)
from .semantics import (
    _adjoint,
    _as_theta,
    _left,
    _resolve_register,
    lower,
    observable_semantics,
    observable_semantics_ancilla,
    program_dual_observable,
)

DEFAULT_SHOT_CONSTANT = 10.0


@dataclass(frozen=True)
class DerivativeProgram:
    """Compiled derivative of one program for one parameter: the fresh
    ancilla and the non-aborting plain members (empty when the read-out
    cannot depend on the parameter)."""

    param_index: int
    ancilla: QVar
    members: tuple

    @property
    def count(self) -> int:
        return len(self.members)


def derivative_program(p, j: int) -> DerivativeProgram:
    d = differentiate(p, j)
    compiled = compile_additive(d.transformed, d.register)
    members = tuple(m for m in compiled.members if not essentially_aborts(m))
    return DerivativeProgram(j, d.ancilla, members)


def grad_exact(p, theta, j: int, o: Observable, rho: DensityOperator,
               register: Register | None = None,
               dp: DerivativeProgram | None = None) -> float:
    """Exact parameter-j derivative of tr(O . denote(p)(rho))."""
    base = _resolve_register(p, register)
    if dp is None:
        dp = derivative_program(p, j)
    total = 0.0
    for member in dp.members:
        total += observable_semantics_ancilla(
            member, o, rho, theta, dp.ancilla, base
        )
    return total


def grad_adjoint(p, theta, o, rho, register: Register | None = None) -> np.ndarray:
    """Every partial of tr(O . denote(p)(rho)) for a plain program, one
    per entry of ``theta``, from one reverse-mode sweep on the base
    register.  ``o`` and ``rho`` are Hermitian: an Observable and a
    DensityOperator, or any Hermitian matrices (a signed mixture of
    input states, say).  Agrees with :func:`grad_exact` for every j."""
    reg = _resolve_register(p, register)
    check_sim_dim(reg.dim)
    th = _as_theta(theta, max_param_index(p))
    o_mat, rho_mat = (_hermitian(a, reg.dim) for a in (o, rho))
    grad = np.zeros(th.size)
    _adjoint(lower(p, th, reg), rho_mat, o_mat, grad)
    return grad


def _hermitian(a, dim: int) -> np.ndarray:
    m = np.asarray(getattr(a, "mat", a), dtype=complex)
    if m.shape != (dim, dim):
        raise ValidationError(f"operator shape {m.shape} does not match register dim {dim}")
    if herm_defect(m) > HERM_TOL:
        raise ValidationError("the adjoint sweep needs Hermitian operators")
    return m


def finite_difference(p, theta, j: int, o: Observable, rho: DensityOperator,
                      h: float = 1e-4, register: Register | None = None) -> float:
    """Central-difference oracle for the same quantity as grad_exact."""
    base = _resolve_register(p, register)
    theta = np.asarray(theta, dtype=float)
    up, down = theta.copy(), theta.copy()
    up[j - 1] += h
    down[j - 1] -= h
    f_up = observable_semantics(p, o, rho, up, base)
    f_down = observable_semantics(p, o, rho, down, base)
    return (f_up - f_down) / (2 * h)


def dual_gradient_operator(dp: DerivativeProgram, theta, o: Observable,
                           base_register: Register) -> np.ndarray:
    """The gradient as a pulled-back operator on ancilla (x) base:
    tr(result . |0><0| (x) rho) equals grad_exact for every rho.  One
    evaluation serves arbitrarily many input states."""
    full = Register((dp.ancilla,) + tuple(base_register))
    check_sim_dim(full.dim)
    obs_full = np.kron(PAULI_Z, o.mat)
    total = np.zeros((full.dim, full.dim), complex)
    for member in dp.members:
        total += program_dual_observable(member, theta, obs_full, full)
    return total


def shot_count(m: int, delta: float, c: float = DEFAULT_SHOT_CONSTANT) -> int:
    """Trajectories needed for additive precision delta with m members."""
    if delta <= 0:
        raise ValidationError("delta must be positive")
    return int(math.ceil(c * m * m / (delta * delta)))


def estimate_grad_sampled(p, theta, j: int, o: Observable, rho: DensityOperator,
                          delta: float, seed: int,
                          c: float = DEFAULT_SHOT_CONSTANT,
                          register: Register | None = None,
                          dp: DerivativeProgram | None = None) -> float:
    """Monte-Carlo estimate of grad_exact to additive precision delta."""
    if delta <= 0:
        raise ValidationError("delta must be positive")
    base = _resolve_register(p, register)
    check_sim_dim(2 * base.dim)  # the ancilla doubles the register
    if dp is None:
        dp = derivative_program(p, j)
    m = dp.count
    if m == 0:
        return 0.0
    full = Register((dp.ancilla,) + tuple(base))
    th = _as_theta(theta, 0)
    obs_full = np.kron(PAULI_Z, o.mat)
    eye = np.eye(full.dim, dtype=complex)
    programs = [_lift(lower(member, th, full), eye) for member in dp.members]
    weights, vectors = _decompose_state(rho)
    n = shot_count(m, delta, c)
    total = 0.0
    key_hi = seed & 0xFFFFFFFFFFFFFFFF
    for t in range(n):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([key_hi, t], dtype=np.uint64))
        )
        if len(vectors) == 1:
            psi_base = vectors[0]
        else:
            psi_base = vectors[rng.choice(len(vectors), p=weights)]
        psi = np.zeros(full.dim, complex)
        psi[: base.dim] = psi_base  # ancilla |0>, most significant wire
        i = int(rng.integers(m))
        psi, alive, _ = _run_trajectory(programs[i], psi, rng)
        if alive:
            total += m * float(np.real(psi.conj() @ (obs_full @ psi)))
    return rho.trace * total / n


@dataclass(frozen=True)
class Trajectory:
    """One pure-state unraveling of a plain program run.

    ``weight`` is the product of the sampled branch probabilities (how
    likely this particular run was); ``outcomes`` records every sampled
    measurement result and initialization branch in order.  The state is
    normalized whenever the weight is positive and the run did not
    abort.
    """

    state: np.ndarray
    weight: float
    outcomes: tuple
    aborted: bool

    def __post_init__(self):
        if not -1e-12 <= self.weight <= 1 + 1e-12:
            raise ValidationError(f"trajectory weight {self.weight} outside [0, 1]")
        if not self.aborted and self.weight > 0:
            norm = float(np.linalg.norm(self.state))
            if abs(norm - 1) > 1e-9:
                raise ValidationError(f"live trajectory has norm {norm}")


def sample_trajectory(p, theta, psi0, rng, register: Register) -> Trajectory:
    """Unravel one run of a plain compiled program from a pure state."""
    check_sim_dim(register.dim)
    th = _as_theta(theta, 0)
    ops = _lift(lower(p, th, register), np.eye(register.dim, dtype=complex))
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if psi.size != register.dim:
        raise ValidationError(
            f"state vector has dim {psi.size}, register needs {register.dim}"
        )
    outcomes = []
    psi, alive, weight = _run_trajectory(ops, psi, rng, outcomes)
    return Trajectory(psi, weight, tuple(outcomes), not alive)


def _decompose_state(rho: DensityOperator):
    """Pure components of a state and their sampling weights."""
    evals, evecs = np.linalg.eigh((rho.mat + dagger(rho.mat)) / 2)
    keep = evals > 1e-12
    w = evals[keep]
    vectors = [np.ascontiguousarray(evecs[:, i]) for i in np.nonzero(keep)[0]]
    if not vectors:
        raise ValidationError("cannot sample trajectories from the zero state")
    return (w / w.sum()).tolist(), vectors


def _lift(ops, eye: np.ndarray) -> list:
    """Lowered ops as (kind, full-register matrices, lifted branches).
    A trajectory applies every matrix to one vector per shot, where a
    dense matvec beats a local contraction."""
    out = []
    for op in ops:
        if op.kind == "while":
            raise ValidationError("compiled members contain no while loop")
        mats = [_left(k, eye, op.plan) for k, _ in op.pairs]
        out.append((op.kind, mats, [_lift(b, eye) for b in op.branches]))
    return out


def _run_trajectory(ops, psi, rng, outcomes=None, weight=1.0):
    for kind, kraus, branches in ops:
        if kind == "u":
            psi = kraus[0] @ psi
        elif kind == "abort":
            return psi, False, weight
        else:
            shots = [k @ psi for k in kraus]
            probs = np.array([float(np.real(s.conj() @ s)) for s in shots])
            total = probs.sum()
            if total <= 0:
                return psi, False, weight
            m = int(rng.choice(len(kraus), p=probs / total))
            if outcomes is not None:
                outcomes.append(m)
            weight *= probs[m] / total
            psi = shots[m] / math.sqrt(probs[m])
            if branches:
                psi, alive, weight = _run_trajectory(
                    branches[m], psi, rng, outcomes, weight
                )
                if not alive:
                    return psi, False, weight
    return psi, True, weight


@dataclass(frozen=True)
class GradientReport:
    """Per-parameter derivatives with provenance and resource counts."""

    theta: tuple
    values: tuple
    method: str  # "exact" or "sampled"
    nna: tuple
    oc: tuple
    shots: int | None = None
    delta: float | None = None

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise ValidationError("gradient contains non-finite values")

    def to_json(self) -> str:
        doc = {
            "theta": list(self.theta),
            "grad": list(self.values),
            "method": self.method,
            "nna": list(self.nna),
            "oc": list(self.oc),
            "shots": self.shots,
            "delta": self.delta,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def grad_all(p, theta, o: Observable, rho: DensityOperator,
             register: Register | None = None,
             sampled: bool = False, delta: float = 0.05, seed: int = 0,
             c: float = DEFAULT_SHOT_CONSTANT,
             params: list | None = None) -> GradientReport:
    """Derivative of the read-out for every parameter (or ``params``).

    Exact values come from one adjoint sweep per call; the derivative
    programs are built for their member counts, and run only by the
    sampled estimator."""
    theta = np.asarray(theta, dtype=float)
    k = theta.size
    base = _resolve_register(p, register)
    indices = list(params) if params is not None else list(range(1, k + 1))
    values, counts, ocs = [], [], []
    shots = 0
    for j in indices:
        if not 1 <= j <= k:
            raise ValidationError(f"parameter index {j} out of range 1..{k}")
        dp = derivative_program(p, j)
        counts.append(dp.count)
        ocs.append(occurrence_count(p, j))
        if sampled:
            if dp.count:
                shots += shot_count(dp.count, delta, c)
                values.append(
                    estimate_grad_sampled(
                        p, theta, j, o, rho, delta, seed + j, c, base, dp
                    )
                )
            else:
                values.append(0.0)
    if not sampled:
        grad = grad_adjoint(p, theta, o, rho, base)
        values = [float(grad[j - 1]) for j in indices]
    return GradientReport(
        theta=tuple(float(x) for x in theta),
        values=tuple(values),
        method="sampled" if sampled else "exact",
        nna=tuple(counts),
        oc=tuple(ocs),
        shots=shots if sampled else None,
        delta=delta if sampled else None,
    )
