"""Training a 4-qubit variational classifier, with and without control.

The task: classify bit strings z = z1 z2 z3 z4 by the label
``f(z) = NOT(z1 XOR z4)``.  Two candidate models share one rotation
block ``Q`` (an X, a Y and a Z rotation on each of the four qubits,
twelve parameters):

* ``P1`` runs two blocks back to back, 24 parameters, no control;
* ``P2`` runs one block, measures q1, and picks one of two further
  blocks on the outcome, 36 parameters.

Inputs are basis-encoded (qubit i prepared in |z_i>), the prediction is
the probability of reading 1 on q4, and the loss is half the squared
error summed over all 16 inputs.  Both models execute 24 rotations per
run; only P2 can condition its second half on a measurement, which is
what lets it fit this label at all.

Training is plain full-batch gradient descent.  The predictions for all
16 inputs are the diagonal of one Heisenberg-picture pass of the
read-out.  The loss gradient sum_z r_z df_z/dtheta, with residuals
r_z = f_z - y_z, is linear in the input state, so it is the gradient of
one read-out on the signed mixture rho_R = sum_z r_z |z><z|: one
reverse-mode sweep (``gradient.grad_adjoint``) gives all partials at
once, with no derivative program and no ancilla.  Training computes the
predictions once per parameter point, for the recorded loss and the next
residuals alike.  The sweep is tested to agree with the member-by-member
exact gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ast import COMP_BASIS, Case, Init, QVar, Register, Unitary, max_param_index, seq_all
from .errors import NumericError, ValidationError
from .gates import FixedGate, Rotation
from .gradient import grad_adjoint
from .linalg import DensityOperator, Observable
from .semantics import embed_on, observable_semantics, program_dual_observable

QUBITS = tuple(QVar(f"q{i}") for i in range(1, 5))
REGISTER = Register(QUBITS)


def label(z) -> int:
    """f(z) = NOT(z1 XOR z4)."""
    return 1 - (z[0] ^ z[3])


@dataclass(frozen=True)
class Dataset4:
    """All sixteen 4-bit inputs with their labels."""

    rows: tuple

    @staticmethod
    def full() -> "Dataset4":
        rows = []
        for n in range(16):
            z = tuple((n >> (3 - i)) & 1 for i in range(4))
            rows.append((z, label(z)))
        return Dataset4(tuple(rows))

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def build_block_q(params) -> object:
    """The rotation block: X on q1..q4, then Y, then Z, one fresh
    parameter per gate in the given order (twelve indices)."""
    params = list(params)
    if len(params) != 12 or len(set(params)) != 12:
        raise ValidationError("block takes 12 distinct parameter indices")
    stmts = []
    for axis_start, axis in ((0, "X"), (4, "Y"), (8, "Z")):
        for i, q in enumerate(QUBITS):
            stmts.append(Unitary(Rotation(axis, params[axis_start + i]), Register.of(q)))
    return seq_all(stmts)


def build_p1() -> object:
    """Two blocks in sequence; parameters 1..24."""
    return seq_all([build_block_q(range(1, 13)), build_block_q(range(13, 25))])


def build_p2() -> object:
    """One block, then a measurement on q1 choosing between two further
    blocks; parameters 1..36."""
    guard = Case(
        Register.of(QUBITS[0]),
        COMP_BASIS,
        (build_block_q(range(13, 25)), build_block_q(range(25, 37))),
    )
    return seq_all([build_block_q(range(1, 13)), guard])


def build_model(name: str):
    if name == "p1":
        return build_p1()
    if name == "p2":
        return build_p2()
    raise ValidationError(f"unknown model {name!r} (expected p1 or p2)")


def readout_observable() -> Observable:
    """|1><1| on q4, the probability of predicting label 1."""
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    return Observable(embed_on(p1, Register.of(QUBITS[3]), REGISTER))


def encoding_program(z):
    """Feature preparation as statements: reset every qubit, then flip
    the ones whose bit is set.  Applied to any state this leaves the
    register exactly in |z><z|; `input_state` is its closed form."""
    z = _check_bits(z)
    stmts = [Init(q) for q in QUBITS]
    stmts += [
        Unitary(FixedGate("X"), Register.of(q)) for q, b in zip(QUBITS, z) if b
    ]
    return seq_all(stmts)


def input_state(z) -> DensityOperator:
    """Basis encoding of a feature vector: qubit i prepared in |z_i>."""
    return DensityOperator.basis(16, _basis_index(_check_bits(z)))


def _check_bits(z):
    z = tuple(int(b) for b in z)
    if len(z) != 4 or any(b not in (0, 1) for b in z):
        raise ValidationError(f"expected 4 bits, got {z}")
    return z


def _basis_index(z) -> int:
    idx = 0
    for b in z:
        idx = idx * 2 + b
    return idx


def classify(p, theta, z) -> float:
    """Probability that the model predicts 1 on input z."""
    rho = input_state(z)
    return observable_semantics(p, readout_observable(), rho, theta, REGISTER)


def _predictions(p, theta, obs: Observable) -> np.ndarray:
    """The read-out f_z of every basis input z, indexed by z as a binary
    number: the diagonal of the read-out pulled back through the model."""
    return program_dual_observable(p, theta, obs.mat, REGISTER).diagonal().real


def _loss(pred: np.ndarray, data) -> float:
    total = 0.0
    for z, y in data:
        total += 0.5 * (pred[_basis_index(z)] - y) ** 2
    return total


def loss(p, theta, dataset: Dataset4 | None = None) -> float:
    """Half the squared error of the prediction, summed over the data."""
    data = dataset if dataset is not None else Dataset4.full()
    return _loss(_predictions(p, theta, readout_observable()), data)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 1000
    init: str = "uniform"  # uniform in [0, 2*pi), or "zeros"
    seed: int = 42

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")
        if self.epochs < 1:
            raise ValidationError("need at least one epoch")


@dataclass
class TrainResult:
    losses: list = field(default_factory=list)  # epochs + 1 entries
    theta: np.ndarray | None = None

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    def to_csv(self) -> str:
        lines = ["epoch,loss"]
        lines += [f"{e},{v!r}" for e, v in enumerate(self.losses)]
        return "\n".join(lines) + "\n"


def init_theta(k: int, cfg: TrainConfig) -> np.ndarray:
    if cfg.init == "uniform":
        return np.random.default_rng(cfg.seed).uniform(0.0, 2 * np.pi, size=k)
    if cfg.init == "zeros":
        return np.zeros(k)
    raise ValidationError(f"unknown init spec {cfg.init!r}")


def loss_gradient(p, theta, derivatives=None, dataset=None) -> np.ndarray:
    """Full-batch gradient of the loss at theta, one entry per theta.

    ``derivatives`` is unused: the gradient comes from one adjoint sweep,
    not from derivative programs.  It stays so that positional callers
    ``loss_gradient(p, theta, derivatives)`` keep working."""
    theta = np.asarray(theta, dtype=float)
    data = dataset if dataset is not None else Dataset4.full()
    obs = readout_observable()
    return _gradient(p, theta, _predictions(p, theta, obs), data, obs)


def _gradient(p, theta, pred: np.ndarray, data, obs: Observable) -> np.ndarray:
    """sum_z r_z df_z/dtheta as the gradient of the read-out on the
    signed mixture sum_z r_z |z><z| of the inputs."""
    weights = np.zeros(len(pred))
    for z, y in data:
        weights[_basis_index(z)] = pred[_basis_index(z)] - y
    return grad_adjoint(p, theta, obs, np.diag(weights), REGISTER)


def train(p, cfg: TrainConfig, k: int | None = None,
          progress=None) -> TrainResult:
    """Full-batch gradient descent on the classification loss.

    Returns the loss curve (initial loss plus one entry per epoch) and
    the final parameters; raises NumericError if the loss diverges.
    """
    if k is None:
        k = max_param_index(p)
    theta = init_theta(k, cfg)
    data = Dataset4.full()
    obs = readout_observable()
    pred = _predictions(p, theta, obs)
    result = TrainResult()
    result.losses.append(_loss(pred, data))
    for epoch in range(cfg.epochs):
        grad = _gradient(p, theta, pred, data, obs)
        theta = theta - cfg.learning_rate * grad
        pred = _predictions(p, theta, obs)
        value = _loss(pred, data)
        if not np.isfinite(value):
            raise NumericError(
                f"training diverged at epoch {epoch + 1} (loss {value})"
            )
        result.losses.append(value)
        if progress is not None:
            progress(epoch + 1, value)
    result.theta = theta
    return result
