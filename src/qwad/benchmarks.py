"""Generators for representative variational-circuit benchmark programs.

Three families, each built from a characteristic rotate-entangle block:

* ``qnn``  -- Z, X, Z rotation passes over the block's window, then an
  XX coupling on every pair of window qubits;
* ``vqe``  -- X and Z rotation passes, an H + CNOT-chain entangler, then
  Z, X, Z rotation passes;
* ``qaoa`` -- an H + CNOT-chain entangler followed by one X rotation
  pass.

Control enrichment (the ``control`` axis):

* ``basic``  -- a single block, one fresh parameter per gate;
* ``shared`` -- a single block whose first rotation pass reuses th1 on
  every gate;
* ``if``     -- a block followed by measurement-guarded layers, each
  choosing between two differently parameterized blocks; th1 appears
  once per block (its first gate);
* ``while``  -- a block followed by 2-bounded loops each wrapping one
  block; th1 again appears once per block.

Multi-layer instances slide the block window across the register so
every declared qubit is touched.  The exact parameter/qubit assignment
is this module's own convention; the structural law that holds by
construction (and is enforced by resource_report) is that the number of
non-aborting derivative members never exceeds the occurrence count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .ast import COMP_BASIS, Case, QVar, Register, Unitary, While, seq_all
from .errors import ValidationError
from .gates import FixedGate, Rotation
from .syntax import SourceUnit

FAMILIES = ("qnn", "vqe", "qaoa")
SCALES = ("s", "m", "l")
CONTROLS = ("basic", "shared", "if", "while")

# family -> scale -> (qubits, window, guarded layers for "if",
#                     loop count for "while")
_SIZES = {
    "qnn": {"s": (4, 4, 1, 1), "m": (18, 6, 2, 2), "l": (36, 6, 5, 5)},
    "vqe": {"s": (2, 2, 1, 1), "m": (12, 4, 2, 2), "l": (40, 8, 4, 4)},
    "qaoa": {"s": (3, 3, 1, 1), "m": (18, 6, 2, 2), "l": (36, 6, 5, 5)},
}

WHILE_BOUND = 2


@dataclass(frozen=True)
class BenchSpec:
    family: str
    scale: str
    control: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.scale not in SCALES:
            raise ValidationError(f"unknown scale {self.scale!r}")
        if self.control not in CONTROLS:
            raise ValidationError(f"unknown control {self.control!r}")

    @property
    def qubit_count(self) -> int:
        nq, window, _, _ = _SIZES[self.family][self.scale]
        # single-block variants only ever touch one window
        return window if self.control in ("basic", "shared") else nq

    @property
    def window(self) -> int:
        return _SIZES[self.family][self.scale][1]

    @property
    def extra_layers(self) -> int:
        _, _, guarded, loops = _SIZES[self.family][self.scale]
        if self.control == "if":
            return guarded
        if self.control == "while":
            return loops
        return 0

    @property
    def layer_count(self) -> int:
        if self.control == "if":
            return 1 + self.extra_layers
        if self.control == "while":
            return 1 + WHILE_BOUND * self.extra_layers
        return 1

    @property
    def name(self) -> str:
        short = {"basic": "b", "shared": "s", "if": "i", "while": "w"}
        return f"{self.family}_{self.scale}_{short[self.control]}"


class _Params:
    """Allocates 1-based parameter indices under one sharing convention."""

    def __init__(self, mode: str):
        self.mode = mode
        self.next_fresh = 1 if mode == "basic" else 2
        self.used = 1 if mode != "basic" else 0
        self._block_head = False
        self._first_pass = False

    def start_block(self):
        self._block_head = self.mode in ("if", "while")

    def start_pass(self, block_index: int, pass_index: int):
        self._first_pass = (
            self.mode == "shared" and block_index == 0 and pass_index == 0
        )

    def take(self) -> int:
        if self._first_pass:
            return 1
        if self._block_head:
            self._block_head = False
            return 1
        j = self.next_fresh
        self.next_fresh += 1
        self.used = max(self.used, j)
        return j

    @property
    def count(self) -> int:
        return max(self.used, self.next_fresh - 1)


def _rotation_pass(axis, window, params):
    return [Unitary(Rotation(axis, params.take()), Register.of(q)) for q in window]


def _entangle_chain(window):
    out = [Unitary(FixedGate("H"), Register.of(q)) for q in window]
    for a, b in zip(window, window[1:]):
        out.append(Unitary(FixedGate("CNOT"), Register.of(a, b)))
    return out


def _block(family, window, params, block_index):
    stmts = []
    passes = {
        "qnn": ("Z", "X", "Z"),
        "vqe": ("X", "Z"),
        "qaoa": (),
    }[family]
    for i, axis in enumerate(passes):
        params.start_pass(block_index, i)
        stmts += _rotation_pass(axis, window, params)
        params.start_pass(block_index, -1)
    if family == "qnn":
        for a, b in combinations(window, 2):
            stmts.append(Unitary(Rotation("XX", params.take()), Register.of(a, b)))
    elif family == "vqe":
        stmts += _entangle_chain(window)
        for i, axis in enumerate(("Z", "X", "Z")):
            stmts += _rotation_pass(axis, window, params)
    else:  # qaoa
        stmts += _entangle_chain(window)
        params.start_pass(block_index, 0)
        stmts += _rotation_pass("X", window, params)
        params.start_pass(block_index, -1)
    return stmts


def bench_unit(spec: BenchSpec) -> SourceUnit:
    qubits = tuple(QVar(f"q{i}") for i in range(1, spec.qubit_count + 1))
    params = _Params(spec.control)

    def window_at(layer_index: int):
        start = (layer_index * spec.window) % len(qubits)
        return [qubits[(start + i) % len(qubits)] for i in range(spec.window)]

    params.start_block()
    stmts = _block(spec.family, window_at(0), params, 0)
    guard_reg = Register.of(qubits[0])
    for layer in range(1, spec.extra_layers + 1):
        window = window_at(layer)
        if spec.control == "if":
            params.start_block()
            left = seq_all(_block(spec.family, window, params, layer))
            params.start_block()
            right = seq_all(_block(spec.family, window, params, layer))
            stmts.append(Case(guard_reg, COMP_BASIS, (left, right)))
        else:
            params.start_block()
            body = seq_all(_block(spec.family, window, params, layer))
            stmts.append(While(WHILE_BOUND, guard_reg, COMP_BASIS, body))
    body = seq_all(stmts)
    return SourceUnit(Register(qubits), params.count, body)


def all_specs(scales=SCALES) -> list:
    return [
        BenchSpec(f, s, c) for f in FAMILIES for s in scales for c in CONTROLS
    ]
