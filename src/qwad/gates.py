"""Gate vocabulary of the language and the matrices behind it.

Parameterized gates are the six Pauli rotations/couplings
``exp(-i theta/2 sigma)`` for ``sigma`` in ``{X, Y, Z, XX, YY, ZZ}``,
each referring to one classical parameter by 1-based index.  On top of
those the package defines, per axis:

* ``CR`` -- a controlled rotation whose target angle is shifted by pi
  when the control qubit is 1:  |0><0| (x) R(theta) + |1><1| (x) R(theta+pi).
* ``R'`` -- the same controlled rotation conjugated by a Hadamard on the
  control wire.  Reading the control out in the Z basis afterwards
  yields exactly the derivative of the plain rotation's read-out, which
  is what the derivative code transform emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .linalg import CNOT, HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, as_matrix, dagger

FIXED_GATES = {
    "H": HADAMARD,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "CNOT": CNOT,
}

AXES = ("X", "Y", "Z", "XX", "YY", "ZZ")

_PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@lru_cache(maxsize=None)
def _axis_matrix(axis: str) -> np.ndarray:
    if axis not in AXES:
        raise ValidationError(f"unknown rotation axis {axis!r}")
    m = _PAULI[axis[0]]
    return np.kron(m, m) if len(axis) == 2 else m


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta/2 sigma) for a one- or two-qubit Pauli axis."""
    sigma = _axis_matrix(axis)
    eye = np.eye(sigma.shape[0], dtype=complex)
    return math.cos(theta / 2) * eye - 1j * math.sin(theta / 2) * sigma


@lru_cache(maxsize=None)
def _shift_factors(axis: str, hadamard: bool) -> tuple:
    """(C, S) with cos(theta/2) C + sin(theta/2) S equal to the controlled
    shift rotation (conjugated by H on the control when ``hadamard``):
    for c, s = cos, sin(theta/2) and F = -i sigma, R(theta) = cI + sF and
    R(theta + pi) = -sI + cF fill its two diagonal blocks."""
    sigma = _axis_matrix(axis)
    e, f, zero = np.eye(len(sigma)), -1j * sigma, np.zeros_like(sigma)
    c = np.block([[e, zero], [zero, f]])
    s = np.block([[f, zero], [zero, -e]])
    if hadamard:
        h = np.kron(HADAMARD, e)
        c, s = h @ c @ h, h @ s @ h
    return c, s


def controlled_shift_matrix(axis: str, theta: float) -> np.ndarray:
    """|0><0| (x) R(theta) + |1><1| (x) R(theta + pi); control most significant."""
    c, s = _shift_factors(axis, False)
    return math.cos(theta / 2) * c + math.sin(theta / 2) * s


def gadget_matrix(axis: str, theta: float) -> np.ndarray:
    """Hadamard-conjugated controlled shift rotation on (control, targets)."""
    c, s = _shift_factors(axis, True)
    return math.cos(theta / 2) * c + math.sin(theta / 2) * s


@dataclass(frozen=True)
class MatrixLiteral:
    """An immutable, hashable matrix for embedding in ASTs."""

    entries: tuple

    @staticmethod
    def of(m) -> "MatrixLiteral":
        a = as_matrix(m)
        return MatrixLiteral(tuple(tuple(complex(x) for x in row) for row in a))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class FixedGate:
    """One of the unparameterized named gates H, X, Y, Z, CNOT."""

    name: str

    def __post_init__(self):
        if self.name not in FIXED_GATES:
            raise ValidationError(f"unknown fixed gate {self.name!r}")

    @property
    def dim(self) -> int:
        return FIXED_GATES[self.name].shape[0]

    @property
    def param_index(self):
        return None


@dataclass(frozen=True)
class LiteralGate:
    """An explicit unitary matrix, for IR-level tests and fixtures."""

    matrix: MatrixLiteral

    def __post_init__(self):
        m = self.matrix.array
        if m.shape[0] != m.shape[1]:
            raise ValidationError("literal gate matrix must be square")
        defect = np.max(np.abs(dagger(m) @ m - np.eye(m.shape[0])))
        if defect > 1e-9:
            raise ValidationError(
                f"literal gate is not unitary (defect {defect:.3e})"
            )

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def param_index(self):
        return None


@dataclass(frozen=True, eq=True)
class _Parameterized:
    axis: str
    param: int

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValidationError(f"unknown rotation axis {self.axis!r}")
        if self.param < 1:
            raise ValidationError("parameter indices are 1-based")

    @property
    def param_index(self) -> int:
        return self.param


class Rotation(_Parameterized):
    """R_sigma(theta_j): one wire for X/Y/Z, two for XX/YY/ZZ."""

    @property
    def dim(self) -> int:
        return 2 if len(self.axis) == 1 else 4


class ControlledShiftRotation(_Parameterized):
    """CR_sigma(theta_j): one extra control wire, shift by pi when set."""

    @property
    def dim(self) -> int:
        return 4 if len(self.axis) == 1 else 8


class GadgetRotation(_Parameterized):
    """R'_sigma(theta_j): Hadamard-conjugated controlled shift rotation."""

    @property
    def dim(self) -> int:
        return 4 if len(self.axis) == 1 else 8


def trivially_uses(gate, j: int) -> bool:
    """True when the gate's read-out cannot depend on parameter j."""
    return gate.param_index != j


def check_differentiable(gate) -> None:
    """Only rotations and couplings have a derivative rule."""
    if not isinstance(gate, Rotation):
        raise ValidationError(
            f"no derivative rule for gate {type(gate).__name__}; only "
            "rotations and couplings carry parameters"
        )


@lru_cache(maxsize=None)
def _generator(axis: str) -> np.ndarray:
    g = -0.5j * _axis_matrix(axis)
    g.flags.writeable = False
    return g


def rotation_generator(gate) -> np.ndarray:
    """G with dR/dtheta = G R(theta) for R(theta) = exp(-i theta/2 sigma):
    G = -i sigma / 2 = R(theta + pi) R(theta)^dag / 2, the shift identity
    dR/dtheta = R(theta + pi) / 2 read through R^dag.  Read-only."""
    check_differentiable(gate)
    return _generator(gate.axis)


def gate_matrix(gate, theta) -> np.ndarray:
    """Concrete unitary for a gate at parameter values ``theta``."""
    if isinstance(gate, FixedGate):
        return FIXED_GATES[gate.name]
    if isinstance(gate, LiteralGate):
        return gate.matrix.array
    angle = float(theta[gate.param - 1])
    if isinstance(gate, Rotation):
        return rotation_matrix(gate.axis, angle)
    if isinstance(gate, ControlledShiftRotation):
        return controlled_shift_matrix(gate.axis, angle)
    if isinstance(gate, GadgetRotation):
        return gadget_matrix(gate.axis, angle)
    raise ValidationError(f"unknown gate kind {type(gate).__name__}")


def gate_name(gate) -> str:
    """Surface-syntax spelling of a gate."""
    if isinstance(gate, FixedGate):
        return gate.name
    if isinstance(gate, LiteralGate):
        return "U"
    base = "R" + gate.axis.lower()
    if isinstance(gate, Rotation):
        return base
    if isinstance(gate, GadgetRotation):
        return base + "'"
    return "C" + base
