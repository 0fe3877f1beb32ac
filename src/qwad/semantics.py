"""Evaluators for plain and additive programs.

Views of the same program, all over a fixed register layout:

* :func:`denote` -- the forward superoperator semantics, one partial
  density operator out per density operator in.
* :func:`trace_enumerate` -- small-step execution collecting the final
  state of every run into a multiset.  Measurements fork one run per
  outcome, additive choice forks both branches on the same state.
* :func:`observable_semantics` / :func:`observable_semantics_ancilla`
  -- the scalar read-out tr(O . final state).  For additive programs
  this is the *sum* over the compiled collection, not an average.
* :func:`program_dual_observable` -- pulls an operator backwards
  through a plain program (Heisenberg picture), so that
  tr(O . denote(p)(rho)) == tr(dual(p, O) . rho) for every rho.
* :func:`_adjoint` -- reverse mode: one forward sweep of the state and
  one backward sweep of the observable give the partial derivative of
  tr(O . denote(p)(rho)) for every parameter at once
  (``gradient.grad_adjoint``).

The exact evaluators first :func:`lower` a plain program into a flat op
list (local matrices, built once per call) and apply each op to the
target axes of the state alone, never building a full-register matrix.

The register argument fixes the tensor layout (first variable most
significant).  When omitted it defaults to the program's variables in
first-appearance order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ast import (
    Abort,
    Case,
    Init,
    QVar,
    Register,
    Seq,
    Skip,
    Sum,
    Unitary,
    While,
    basis_kraus,
    is_plain,
    max_param_index,
    qvar_set,
    seq_parts,
)
from .errors import ValidationError
from .gates import gate_matrix, rotation_generator
from .linalg import (
    DensityOperator,
    Observable,
    check_sim_dim,
    dagger,
    embed,
    expectation,
)

ZERO_TOL = 1e-12


def _as_theta(theta, need: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValidationError("parameter values must be finite")
    if arr.size < need:
        raise ValidationError(
            f"program references th{need} but only {arr.size} values given"
        )
    return arr


def _resolve_register(p, register) -> Register:
    used = qvar_set(p)
    if register is None:
        return used
    if not register.contains_all(used):
        missing = [v.name for v in used if v not in register]
        raise ValidationError(f"register is missing program variables {missing}")
    return register


def embed_on(op, target: Register, register: Register) -> np.ndarray:
    """Lift an operator on a sub-register to the full register."""
    return embed(op, target.dims, register.positions(target), register.dims)


# -- lowering ------------------------------------------------------------------

class Op(NamedTuple):
    """One statement of a lowered program.

    ``kind`` is "u" (unitary), "init" (reset channel), "case", "while" or
    "abort".  ``pairs`` holds each local unitary, Kraus or guard operator
    on the target wires with its adjoint; ``plan`` tells :func:`_left`
    how to reach the target wires.  ``branches`` holds the op list of
    each case outcome, or the loop body; ``bound`` is the loop bound.
    ``slot`` is ``(j, gate)`` for a unitary whose gate reads parameter
    j, else empty; only :func:`_adjoint` reads it.
    """

    kind: str
    pairs: tuple = ()
    plan: tuple = ()
    branches: tuple = ()
    bound: int = 0
    slot: tuple = ()


@lru_cache(maxsize=4096)
def _plan(positions: tuple, dims: tuple) -> tuple:
    """How to apply a local operator on the wires at ``positions`` of a
    register laid out as ``dims``: ``(lead, d)`` when the wires are
    contiguous and in order, otherwise the reshapes and the axis order
    of one permutation that brings them to the front."""
    d = math.prod(dims[i] for i in positions)
    first = positions[0] if positions else 0
    if positions == tuple(range(first, first + len(positions))):
        return (math.prod(dims[:first]), d)
    n = len(dims)
    order = positions + tuple(i for i in range(n) if i not in positions)
    inverse = tuple(int(i) for i in np.argsort(order)) + (n,)
    permuted = tuple(dims[i] for i in order) + (-1,)
    return (dims + (-1,), order + (n,), permuted, inverse, d)


def _left(a: np.ndarray, x: np.ndarray, plan: tuple) -> np.ndarray:
    """(a on the planned wires, identity elsewhere) @ x, without building
    the full-register matrix; x is a vector or has one row per basis
    state of the register."""
    if len(plan) == 2:
        return (a @ x.reshape(plan[0], plan[1], -1)).reshape(x.shape)
    shape, order, permuted, inverse, d = plan
    t = x.reshape(shape).transpose(order).reshape(d, -1)
    return (a @ t).reshape(permuted).transpose(inverse).reshape(x.shape)


def _conj(x: np.ndarray, a: np.ndarray, b: np.ndarray, plan: tuple) -> np.ndarray:
    """A x B for the lifted A and B, by left products only: x B == (B^T x^T)^T."""
    return _left(b.T, _left(a, x, plan).T, plan).T


def _op(kind, mats, target: Register, register: Register, branches=(), bound=0,
        slot=()) -> Op:
    plan = _plan(tuple(register.index(v) for v in target), register.dims)
    return Op(kind, tuple((m, dagger(m)) for m in mats), plan, branches, bound, slot)


def lower(p, theta, register: Register) -> list:
    """Flatten a plain program into ops on ``register``: a Seq chain
    becomes one list, every gate, guard and reset one local matrix or
    Kraus list; nothing after an ``abort`` is kept."""
    ops = []
    for node in seq_parts(p):
        if isinstance(node, Skip):
            continue
        if isinstance(node, Abort):
            ops.append(Op("abort"))
            break
        if isinstance(node, Unitary):
            j = node.gate.param_index
            slot = () if j is None else (j, node.gate)
            ops.append(_op("u", (gate_matrix(node.gate, theta),), node.register,
                           register, slot=slot))
        elif isinstance(node, Init):
            kraus = basis_kraus(node.var.dim, reset=True)
            ops.append(_op("init", kraus, Register.of(node.var), register))
        elif isinstance(node, Case):
            branches = tuple(lower(b, theta, register) for b in node.branches)
            guard = node.measurement.operators(node.measured)
            ops.append(_op("case", guard, node.measured, register, branches))
        elif isinstance(node, While):
            body = (lower(node.body, theta, register),)
            guard = node.measurement.operators(node.measured)
            ops.append(_op("while", guard, node.measured, register, body, node.bound))
        elif isinstance(node, Sum):
            raise ValidationError(
                "evaluation is defined on plain programs; additive programs "
                "have multiset semantics (trace_enumerate / observable_semantics)"
            )
        else:
            raise ValidationError(f"not a program node: {type(node).__name__}")
    return ops


def _forward(ops, x: np.ndarray) -> np.ndarray:
    """Schroedinger picture: rho -> sum_k K_k rho K_k^dag, op by op."""
    for op in ops:
        kind, plan = op.kind, op.plan
        if kind == "u":
            x = _conj(x, *op.pairs[0], plan)
        elif kind == "init":
            x = sum(_conj(x, k, kd, plan) for k, kd in op.pairs)
        elif kind == "case":
            x = sum(_forward(b, _conj(x, k, kd, plan))
                    for (k, kd), b in zip(op.pairs, op.branches))
        elif kind == "while":
            (m0, d0), (m1, d1) = op.pairs
            acc = _conj(x, m0, d0, plan)
            for _ in range(1, op.bound):
                x = _forward(op.branches[0], _conj(x, m1, d1, plan))
                acc = acc + _conj(x, m0, d0, plan)
            x = acc
        else:
            return np.zeros_like(x)
    return x


def _dual(ops, x: np.ndarray) -> np.ndarray:
    """Heisenberg picture: O -> sum_k K_k^dag O K_k, last op first.
    Nothing here assumes O is Hermitian."""
    for op in reversed(ops):
        kind, plan = op.kind, op.plan
        if kind == "u":
            x = _conj(x, op.pairs[0][1], op.pairs[0][0], plan)
        elif kind == "init":
            x = sum(_conj(x, kd, k, plan) for k, kd in op.pairs)
        elif kind == "case":
            x = sum(_conj(_dual(b, x), kd, k, plan)
                    for (k, kd), b in zip(op.pairs, op.branches))
        elif kind == "while":
            (m0, d0), (m1, d1) = op.pairs
            x = acc = _conj(x, d0, m0, plan)
            for _ in range(1, op.bound):
                x = _conj(_dual(op.branches[0], x), d1, m1, plan)
                acc = acc + x
            x = acc
        else:
            return np.zeros_like(x)
    return x


def _adjoint(ops, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Reverse mode: add d tr(y . ops(x)) / d theta_j into ``grad[j - 1]``
    for every j and return the pulled-back ``y`` (what :func:`_dual`
    returns).  ``x`` and ``y`` must be Hermitian.

    The forward sweep stores the state only before non-unitary ops, and
    stops after the last op whose input state the backward sweep needs.
    The backward sweep recovers the state before each unitary as
    U^dag x U and adds 2 Re tr(Y dU x U^dag) for a rotation on parameter
    j, where dU = R(theta_j + pi) / 2 (the shift identity), so that
    dU x U^dag = G (U x U^dag) with the local G = dU U^dag = -i sigma / 2.
    A ``case`` recurses into each branch on K x K^dag and sums
    K^dag y_k K; a ``while`` recurses as its nested-case unrolling; an
    ``abort`` zeroes y, and with it every partial before it.
    """
    if ops and ops[-1].kind == "abort":
        return np.zeros_like(y)
    stop = max((i + 1 for i, op in enumerate(ops) if op.kind != "init"), default=0)
    saved = {}
    for i, op in enumerate(ops[:stop]):
        if op.kind != "u":
            saved[i] = x
            if i == stop - 1:
                break
        x = _forward((op,), x)
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        kind, plan = op.kind, op.plan
        if kind == "u":
            u, ud = op.pairs[0]
            if op.slot:
                j, gate = op.slot
                g = rotation_generator(gate)
                # vdot conjugates y, so this is tr(y . G x) for Hermitian y
                grad[j - 1] += 2.0 * np.vdot(y, _left(g, x, plan)).real
            if i and ops[i - 1].kind == "u":
                x = _conj(x, ud, u, plan)
            y = _conj(y, ud, u, plan)
            continue
        x = saved.get(i, x)
        if kind == "init":
            y = sum(_conj(y, kd, k, plan) for k, kd in op.pairs)
        elif kind == "case":
            y = sum(_conj(_adjoint(b, _conj(x, k, kd, plan), y, grad), kd, k, plan)
                    for (k, kd), b in zip(op.pairs, op.branches))
        else:  # while (T) == case: 0 -> skip, 1 -> body; while (T - 1)
            (m0, d0), (m1, d1) = op.pairs
            rest = (list(op.branches[0]) + [op._replace(bound=op.bound - 1)]
                    if op.bound > 1 else [Op("abort")])
            y = _conj(y, d0, m0, plan) + _conj(
                _adjoint(rest, _conj(x, m1, d1, plan), y, grad), d1, m1, plan)
    return y


def denote(p, theta, rho: DensityOperator, register: Register | None = None,
           max_dim: int | None = None) -> DensityOperator:
    """Forward semantics: the output partial density operator."""
    reg = _resolve_register(p, register)
    check_sim_dim(reg.dim, max_dim)
    if rho.dim != reg.dim:
        raise ValidationError(
            f"input state dim {rho.dim} does not match register dim {reg.dim}"
        )
    th = _as_theta(theta, max_param_index(p))
    return DensityOperator(_forward(lower(p, th, reg), rho.mat))


# -- small-step execution -----------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """One point of an execution: the residual program (None once the
    run has terminated) and the current partial state."""

    residual: object
    state: DensityOperator

    @property
    def terminated(self) -> bool:
        return self.residual is None


# A finite multiset of final states, ordered by enumeration for
# determinism but compared order-insensitively (multisets_match).
FinalMultiset = list


def step(cfg: Configuration, theta, register: Register) -> list:
    """All one-step successors of a configuration, in deterministic order
    (measurement outcomes ascending, additive choice left then right)."""
    p = cfg.residual
    if p is None:
        raise ValidationError("cannot step a terminated configuration")
    th = _as_theta(theta, max_param_index(p))
    mat = cfg.state.mat

    def done(m):
        return Configuration(None, DensityOperator(m))

    if isinstance(p, Abort):
        return [done(np.zeros_like(mat))]
    if isinstance(p, (Skip, Init, Unitary)):
        return [done(_forward(lower(p, th, register), mat))]
    if isinstance(p, Seq):
        out = []
        for nxt in step(Configuration(p.first, cfg.state), th, register):
            rest = p.second if nxt.terminated else Seq(nxt.residual, p.second)
            out.append(Configuration(rest, nxt.state))
        return out
    if isinstance(p, (Case, While)):
        kind = "case" if isinstance(p, Case) else "while"
        guard = _op(kind, p.measurement.operators(p.measured), p.measured, register)
        outs = [DensityOperator(_conj(mat, k, kd, guard.plan)) for k, kd in guard.pairs]
        if isinstance(p, Case):
            return [Configuration(b, s) for s, b in zip(outs, p.branches)]
        if p.bound == 1:
            rest = Seq(p.body, Abort(qvar_set(p)))
        else:
            rest = Seq(p.body, While(p.bound - 1, p.measured, p.measurement, p.body))
        return [Configuration(None, outs[0]), Configuration(rest, outs[1])]
    if isinstance(p, Sum):
        return [Configuration(p.left, cfg.state), Configuration(p.right, cfg.state)]
    raise ValidationError(f"not a program node: {type(p).__name__}")


def trace_enumerate(p, theta, rho: DensityOperator,
                    register: Register | None = None,
                    drop_zero: bool = False) -> list:
    """Final states of all maximal runs, as an order-tagged multiset.

    Zero final states (aborted runs) are kept unless ``drop_zero``;
    comparisons between multisets should go through
    :func:`multisets_match` since states carry floating-point noise.
    """
    reg = _resolve_register(p, register)
    check_sim_dim(reg.dim)
    if rho.dim != reg.dim:
        raise ValidationError(
            f"input state dim {rho.dim} does not match register dim {reg.dim}"
        )
    finals = _enumerate_ordered(p, theta, rho, reg)
    if drop_zero:
        finals = [s for s in finals if np.linalg.norm(s.mat) > ZERO_TOL]
    return finals


def _enumerate_ordered(p, theta, rho, reg) -> list:
    out = []

    def run(cfg):
        for nxt in step(cfg, theta, reg):
            if nxt.terminated:
                out.append(nxt.state)
            else:
                run(nxt)

    run(Configuration(p, rho))
    return out


def multisets_match(xs, ys, tol: float = 1e-9) -> bool:
    """Greedy nearest-neighbour matching of two state multisets: every
    member of ``xs`` must claim a distinct member of ``ys`` within
    Frobenius distance ``tol``."""
    if len(xs) != len(ys):
        return False
    pool = [y.mat if isinstance(y, DensityOperator) else np.asarray(y) for y in ys]
    for x in xs:
        xm = x.mat if isinstance(x, DensityOperator) else np.asarray(x)
        dists = [float(np.linalg.norm(xm - y)) for y in pool]
        best = int(np.argmin(dists))
        if dists[best] > tol:
            return False
        pool.pop(best)
    return True


# -- observable semantics ------------------------------------------------------

def observable_semantics(p, o: Observable, rho: DensityOperator, theta,
                         register: Register | None = None) -> float:
    """tr(O . output) for plain programs; for additive programs the sum
    of the same quantity over the compiled collection."""
    reg = _resolve_register(p, register)
    if o.dim != reg.dim:
        raise ValidationError(f"observable dim {o.dim} != register dim {reg.dim}")
    from .compiler import compile_additive

    members = [p] if is_plain(p) else compile_additive(p).members
    return sum(expectation(o, denote(m, theta, rho, reg)) for m in members)


def observable_semantics_ancilla(p, o: Observable, rho: DensityOperator, theta,
                                 ancilla: QVar,
                                 base_register: Register | None = None,
                                 o_ancilla: np.ndarray | None = None) -> float:
    """Read-out with a one-qubit ancilla prepended to the register.

    The ancilla starts in |0><0| and is read with ``o_ancilla`` (the
    Pauli Z matrix by default) tensored with the base observable; the
    base state and observable live on the original register only.
    """
    if ancilla.dim != 2:
        raise ValidationError("ancilla must be a single qubit")
    used = qvar_set(p)
    if base_register is None:
        base_register = Register(tuple(v for v in used if v != ancilla))
    if ancilla in base_register:
        raise ValidationError(f"ancilla {ancilla.name!r} is part of the base register")
    full = Register((ancilla,) + tuple(base_register))
    check_sim_dim(full.dim)
    if o_ancilla is None:
        o_ancilla = np.array([[1, 0], [0, -1]], dtype=complex)
    obs_full = Observable(np.kron(o_ancilla, o.mat))
    zero = np.zeros((2, 2), complex)
    zero[0, 0] = 1.0
    rho_full = DensityOperator(np.kron(zero, rho.mat))
    return observable_semantics(p, obs_full, rho_full, theta, full)


def program_dual_observable(p, theta, o, register: Register | None = None) -> np.ndarray:
    """Heisenberg-picture semantics of a plain program applied to an
    operator: tr(O . denote(p)(rho)) == tr(result . rho) for all rho."""
    reg = _resolve_register(p, register)
    check_sim_dim(reg.dim)
    o = np.asarray(o, dtype=complex)
    if o.shape != (reg.dim, reg.dim):
        raise ValidationError(
            f"operator shape {o.shape} does not match register dim {reg.dim}"
        )
    th = _as_theta(theta, max_param_index(p))
    return np.ascontiguousarray(_dual(lower(p, th, reg), o))
