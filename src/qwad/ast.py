"""ASTs for plain and additive bounded quantum while-programs.

A plain program is built from abort / skip / initialization / unitary
application / sequencing / measurement-guarded case / bounded while.
Additive programs add one constructor, :class:`Sum`, the nondeterministic
choice whose semantics is the multiset of both branches' runs.  Plain
programs are simply additive programs without Sum nodes (`is_plain`).

All nodes are frozen dataclasses: structural equality is `==`, and every
transformation in the package builds new trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import ValidationError
from .gates import ControlledShiftRotation, FixedGate, GadgetRotation
from .linalg import HERM_TOL, dagger


@dataclass(frozen=True)
class QVar:
    """A quantum variable: a qubit (dim 2) or a bounded integer (dim d)."""

    name: str
    dim: int = 2

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError(f"variable {self.name!r} needs dim >= 2")


@dataclass(frozen=True)
class Register:
    """An ordered collection of distinct variables; order fixes the
    tensor layout (first variable most significant)."""

    vars: tuple

    def __post_init__(self):
        vs = tuple(self.vars)
        object.__setattr__(self, "vars", vs)
        names = [v.name for v in vs]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate variables in register {names}")

    @staticmethod
    def of(*vars) -> "Register":
        return Register(tuple(vars))

    def __iter__(self):
        return iter(self.vars)

    def __len__(self):
        return len(self.vars)

    def __getitem__(self, i):
        return self.vars[i]

    def __contains__(self, v):
        return v in self.vars

    @property
    def names(self):
        return tuple(v.name for v in self.vars)

    @cached_property
    def dims(self):
        return tuple(v.dim for v in self.vars)

    @cached_property
    def dim(self) -> int:
        out = 1
        for v in self.vars:
            out *= v.dim
        return out

    def index(self, v: QVar) -> int:
        try:
            return self.vars.index(v)
        except ValueError:
            raise ValidationError(f"variable {v.name!r} not in register {self.names}")

    def positions(self, sub: "Register"):
        return [self.index(v) for v in sub]

    def contains_all(self, sub: "Register") -> bool:
        return all(v in self.vars for v in sub)

    def merged(self, other: "Register") -> "Register":
        extra = tuple(v for v in other if v not in self.vars)
        return Register(self.vars + extra)


@dataclass(frozen=True)
class Measurement:
    """A measurement: either the computational basis of the measured
    register (``kraus is None``; one outcome per basis state) or an
    explicit complete Kraus list."""

    kraus: tuple | None = None

    def __post_init__(self):
        if self.kraus is None:
            return
        ops = tuple(self.kraus)
        object.__setattr__(self, "kraus", ops)
        if len(ops) < 1:
            raise ValidationError("measurement needs at least one outcome")
        mats = [op.array for op in ops]
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValidationError("measurement operators must share one square shape")
        total = sum(dagger(m) @ m for m in mats)
        defect = float(np.max(np.abs(total - np.eye(d))))
        if defect > HERM_TOL:
            raise ValidationError(
                f"measurement operators do not resolve the identity "
                f"(defect {defect:.3e})"
            )

    def outcomes(self, measured: Register) -> int:
        return measured.dim if self.kraus is None else len(self.kraus)

    def operators(self, measured: Register):
        """Kraus operator per outcome, as arrays on the measured register."""
        if self.kraus is not None:
            return [op.array for op in self.kraus]
        return basis_kraus(measured.dim)


@lru_cache(maxsize=None)
def basis_kraus(d: int, reset: bool = False) -> tuple:
    """Read-only Kraus operators on a d-level register, one per basis
    state n: |n><n| for the basis measurement, |0><n| for the reset."""
    ops = np.zeros((d, d, d), complex)
    ops[np.arange(d), 0 if reset else np.arange(d), np.arange(d)] = 1.0
    ops.flags.writeable = False
    return tuple(ops)


COMP_BASIS = Measurement(None)


# -- program nodes ----------------------------------------------------------

@dataclass(frozen=True)
class Abort:
    register: Register


@dataclass(frozen=True)
class Skip:
    register: Register


@dataclass(frozen=True)
class Init:
    var: QVar


@dataclass(frozen=True)
class Unitary:
    gate: object
    register: Register

    def __post_init__(self):
        if self.register.dim != self.gate.dim:
            raise ValidationError(
                f"gate of dim {self.gate.dim} applied to register "
                f"{self.register.names} of dim {self.register.dim}"
            )


@dataclass(frozen=True)
class Seq:
    first: object
    second: object


@dataclass(frozen=True)
class Case:
    measured: Register
    measurement: Measurement
    branches: tuple

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        want = self.measurement.outcomes(self.measured)
        if len(self.branches) != want:
            raise ValidationError(
                f"case needs {want} branches for this measurement, "
                f"got {len(self.branches)}"
            )
        if self.measurement.kraus is not None:
            d = self.measurement.kraus[0].dim
            if d != self.measured.dim:
                raise ValidationError(
                    f"measurement dim {d} does not match measured register "
                    f"dim {self.measured.dim}"
                )


@dataclass(frozen=True)
class While:
    bound: int
    measured: Register
    measurement: Measurement
    body: object

    def __post_init__(self):
        if self.bound < 1:
            raise ValidationError("while bound must be at least 1")
        if self.measurement.outcomes(self.measured) != 2:
            raise ValidationError("while guard needs a two-outcome measurement")


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


def seq_all(parts) -> object:
    """Left-associated chain of ';', matching what the parser builds."""
    parts = list(parts)
    if not parts:
        raise ValidationError("empty sequence")
    return reduce(Seq, parts)


def seq_parts(p) -> list:
    """Flatten the left spine of a Seq chain."""
    out = []
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        else:
            out.append(node)
    return out


def is_plain(p) -> bool:
    """True when the program contains no additive choice."""
    if isinstance(p, Sum):
        return False
    if isinstance(p, Seq):
        return is_plain(p.first) and is_plain(p.second)
    if isinstance(p, Case):
        return all(is_plain(b) for b in p.branches)
    if isinstance(p, While):
        return is_plain(p.body)
    return True


def qvar_set(p) -> Register:
    """Variables a program can touch, in first-appearance order."""
    seen = []

    def visit(node):
        if isinstance(node, (Abort, Skip)):
            add_all(node.register)
        elif isinstance(node, Init):
            add(node.var)
        elif isinstance(node, Unitary):
            add_all(node.register)
        elif isinstance(node, Seq):
            visit(node.first)
            visit(node.second)
        elif isinstance(node, Case):
            add_all(node.measured)
            for b in node.branches:
                visit(b)
        elif isinstance(node, While):
            add_all(node.measured)
            visit(node.body)
        elif isinstance(node, Sum):
            visit(node.left)
            visit(node.right)
        else:
            raise ValidationError(f"not a program node: {type(node).__name__}")

    def add(v):
        if v not in seen:
            seen.append(v)

    def add_all(reg):
        for v in reg:
            add(v)

    visit(p)
    return Register(tuple(seen))


def essentially_aborts(p) -> bool:
    """Syntactic test that a plain program's output is always the zero state:
    it is abort, a sequence with an essentially-aborting side, or a case
    whose every branch essentially aborts."""
    if isinstance(p, Sum):
        raise ValidationError("essentially_aborts is defined on plain programs")
    if isinstance(p, Abort):
        return True
    if isinstance(p, Seq):
        return essentially_aborts(p.first) or essentially_aborts(p.second)
    if isinstance(p, Case):
        return all(essentially_aborts(b) for b in p.branches)
    return False


def expand_while(w: While):
    """Unfold a bounded loop into its nested-case form.

    Bound 1 becomes ``case {0 -> skip, 1 -> body; abort}``; larger bounds
    recurse with the bound reduced by one.  The result contains no While
    nodes (assuming the body contains none after recursive expansion)."""
    reg = qvar_set(w)
    exit_branch = Skip(reg)
    if w.bound == 1:
        rest = Abort(reg)
    else:
        rest = expand_while(
            While(w.bound - 1, w.measured, w.measurement, w.body)
        )
    body = expand_all_whiles(w.body)
    return Case(w.measured, w.measurement, (exit_branch, Seq(body, rest)))


def expand_all_whiles(p):
    """Recursively replace every While node by its case expansion."""
    if isinstance(p, While):
        return expand_while(p)
    if isinstance(p, Seq):
        return Seq(expand_all_whiles(p.first), expand_all_whiles(p.second))
    if isinstance(p, Case):
        return Case(
            p.measured, p.measurement, tuple(expand_all_whiles(b) for b in p.branches)
        )
    if isinstance(p, Sum):
        return Sum(expand_all_whiles(p.left), expand_all_whiles(p.right))
    return p


def expand_gadget(gate: GadgetRotation, ancilla: QVar, target: Register):
    """Unfold R' into its three-statement definition:
    H on the ancilla, the controlled shift rotation, H again."""
    if not isinstance(gate, GadgetRotation):
        raise ValidationError("expand_gadget expects an R' gate")
    if ancilla.dim != 2:
        raise ValidationError("gadget ancilla must be a single qubit")
    if ancilla in target:
        raise ValidationError(
            f"ancilla {ancilla.name!r} collides with target {target.names}"
        )
    areg = Register.of(ancilla)
    full = Register((ancilla,) + tuple(target))
    h = Unitary(FixedGate("H"), areg)
    cr = Unitary(ControlledShiftRotation(gate.axis, gate.param), full)
    return seq_all([h, cr, h])


def param_indices(p) -> set:
    """1-based parameter indices referenced anywhere in the program."""
    out = set()

    def visit(node):
        if isinstance(node, Unitary):
            j = node.gate.param_index
            if j is not None:
                out.add(j)
        elif isinstance(node, Seq):
            visit(node.first)
            visit(node.second)
        elif isinstance(node, Case):
            for b in node.branches:
                visit(b)
        elif isinstance(node, While):
            visit(node.body)
        elif isinstance(node, Sum):
            visit(node.left)
            visit(node.right)

    visit(p)
    return out


def max_param_index(p) -> int:
    used = param_indices(p)
    return max(used) if used else 0
