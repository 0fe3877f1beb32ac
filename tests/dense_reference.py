"""Dense reference evaluators, the oracle for the lowered ones.

Every gate, guard and reset is lifted to a full-register matrix with
``linalg.embed`` and applied with two dense matrix products, one AST
node at a time.  Slow and simple on purpose: ``qwad.semantics`` and
``qwad.gradient`` evaluate through local operator application instead,
and the equivalence tests compare the two.

``train_losses`` is the reference for the classifier training loop: its
gradient is the per-parameter ``dual_gradient_operator`` sum over the
derivative members, where ``qwad.casestudy`` runs one adjoint sweep.
"""

from __future__ import annotations

import math

import numpy as np

from qwad.ast import Abort, Case, Init, Register, Seq, Skip, Unitary, While, max_param_index
from qwad.casestudy import REGISTER, Dataset4, init_theta, loss, readout_observable
from qwad.gates import gate_matrix
from qwad.gradient import derivative_program, dual_gradient_operator
from qwad.linalg import dagger, embed
from qwad.semantics import program_dual_observable


def lift(op, target: Register, register: Register) -> np.ndarray:
    return embed(op, target.dims, register.positions(target), register.dims)


def guard_ops(node, register: Register) -> list:
    return [
        lift(m, node.measured, register)
        for m in node.measurement.operators(node.measured)
    ]


def init_ops(q, register: Register) -> list:
    ops = []
    for n in range(q.dim):
        k = np.zeros((q.dim, q.dim), complex)
        k[0, n] = 1.0
        ops.append(lift(k, Register.of(q), register))
    return ops


def denote(p, theta, mat: np.ndarray, reg: Register) -> np.ndarray:
    """rho -> sum_k K rho K^dag, node by node."""
    if isinstance(p, Abort):
        return np.zeros_like(mat)
    if isinstance(p, Skip):
        return mat
    if isinstance(p, Init):
        return sum(k @ mat @ dagger(k) for k in init_ops(p.var, reg))
    if isinstance(p, Unitary):
        u = lift(gate_matrix(p.gate, theta), p.register, reg)
        return u @ mat @ dagger(u)
    if isinstance(p, Seq):
        return denote(p.second, theta, denote(p.first, theta, mat, reg), reg)
    if isinstance(p, Case):
        return sum(
            denote(b, theta, m @ mat @ dagger(m), reg)
            for m, b in zip(guard_ops(p, reg), p.branches)
        )
    if isinstance(p, While):
        m0, m1 = guard_ops(p, reg)
        acc, cur = m0 @ mat @ dagger(m0), mat
        for _ in range(1, p.bound):
            cur = denote(p.body, theta, m1 @ cur @ dagger(m1), reg)
            acc = acc + m0 @ cur @ dagger(m0)
        return acc
    raise TypeError(type(p).__name__)


def dual(p, theta, o: np.ndarray, reg: Register) -> np.ndarray:
    """O -> sum_k K^dag O K, node by node, last statement first."""
    if isinstance(p, Abort):
        return np.zeros_like(o)
    if isinstance(p, Skip):
        return o
    if isinstance(p, Init):
        return sum(dagger(k) @ o @ k for k in init_ops(p.var, reg))
    if isinstance(p, Unitary):
        u = lift(gate_matrix(p.gate, theta), p.register, reg)
        return dagger(u) @ o @ u
    if isinstance(p, Seq):
        return dual(p.first, theta, dual(p.second, theta, o, reg), reg)
    if isinstance(p, Case):
        return sum(
            dagger(m) @ dual(b, theta, o, reg) @ m
            for m, b in zip(guard_ops(p, reg), p.branches)
        )
    if isinstance(p, While):
        m0, m1 = guard_ops(p, reg)
        cur = dagger(m0) @ o @ m0
        acc = cur
        for _ in range(1, p.bound):
            cur = dagger(m1) @ dual(p.body, theta, cur, reg) @ m1
            acc = acc + cur
        return acc
    raise TypeError(type(p).__name__)


def trajectory(p, theta, psi: np.ndarray, rng, reg: Register):
    """One pure-state run of a while-free program, drawing from ``rng``
    exactly as ``qwad.gradient.sample_trajectory`` does.  Returns
    (state, alive, weight, outcomes)."""
    outcomes = []

    def run(node, psi, weight):
        if isinstance(node, Skip):
            return psi, True, weight
        if isinstance(node, Abort):
            return psi, False, weight
        if isinstance(node, Unitary):
            return lift(gate_matrix(node.gate, theta), node.register, reg) @ psi, True, weight
        if isinstance(node, Seq):
            psi, alive, weight = run(node.first, psi, weight)
            if not alive:
                return psi, False, weight
            return run(node.second, psi, weight)
        if isinstance(node, Init):
            kraus, branches = init_ops(node.var, reg), None
        elif isinstance(node, Case):
            kraus, branches = guard_ops(node, reg), node.branches
        else:
            raise TypeError(type(node).__name__)
        shots = [k @ psi for k in kraus]
        probs = np.array([float(np.real(s.conj() @ s)) for s in shots])
        total = probs.sum()
        if total <= 0:
            return psi, False, weight
        m = int(rng.choice(len(kraus), p=probs / total))
        outcomes.append(m)
        weight *= probs[m] / total
        psi = shots[m] / math.sqrt(probs[m])
        if branches is None:
            return psi, True, weight
        return run(branches[m], psi, weight)

    psi, alive, weight = run(p, np.asarray(psi, dtype=complex), 1.0)
    return psi, alive, weight, tuple(outcomes)


def _basis_index(z) -> int:
    return int("".join(map(str, z)), 2)


def loss_gradient(p, theta, derivatives) -> np.ndarray:
    """Full-batch loss gradient, one parameter at a time: residual times
    the diagonal of the pulled-back gradient operator of its members."""
    obs = readout_observable()
    fwd = program_dual_observable(p, theta, obs.mat, REGISTER)
    residual = {
        _basis_index(z): fwd[_basis_index(z), _basis_index(z)].real - y
        for z, y in Dataset4.full()
    }
    out = []
    for dp in derivatives:
        sigma = dual_gradient_operator(dp, theta, obs, REGISTER)
        # the ancilla is the most significant wire and starts in |0>, so
        # the gradient for basis input b sits on the diagonal at index b
        out.append(sum(r * sigma[b, b].real for b, r in residual.items()))
    return np.array(out)


def train_losses(p, cfg) -> list:
    """The loss curve of ``casestudy.train`` with the gradient above."""
    k = max_param_index(p)
    theta = init_theta(k, cfg)
    derivatives = [derivative_program(p, j) for j in range(1, k + 1)]
    losses = [loss(p, theta)]
    for _ in range(cfg.epochs):
        theta = theta - cfg.learning_rate * loss_gradient(p, theta, derivatives)
        losses.append(loss(p, theta))
    return losses
