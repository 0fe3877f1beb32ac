"""The derivative code transform for additive programs.

``differentiate(p, j)`` produces an additive program over the original
variables plus one fresh ancilla qubit whose ancilla-Z read-out equals
the parameter-j derivative of the read-out of ``p`` -- for every
observable and every input state at once.  The transform is purely
syntax-directed:

* statements that cannot depend on the parameter (abort, skip,
  initialization, fixed gates, rotations on a different parameter)
  become ``abort`` on the extended register;
* a rotation or coupling on parameter j becomes its R' gadget with the
  ancilla as control;
* a sequence becomes the additive choice of differentiating either
  side:  d(S1; S2) = (dS1; S2) [] (S1; dS2);
* a case keeps its guard and differentiates every branch;
* a bounded while is unfolded to nested cases first;
* an additive choice differentiates both components.

``judgement_holds`` is the numerical counterpart of the correctness
argument: it checks the transformed program against central finite
differences of the original's read-out on randomly drawn observables,
states and parameter points -- one fixed transformed program across all
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    expand_all_whiles,
    max_param_index,
    qvar_set,
)
from .errors import ValidationError
from .gates import GadgetRotation, check_differentiable, trivially_uses
from .linalg import random_density, random_observable
from .semantics import observable_semantics, observable_semantics_ancilla


@dataclass(frozen=True)
class DiffResult:
    """The transformed program, the fresh ancilla it controls, and the
    parameter index it differentiates."""

    transformed: object
    ancilla: QVar
    param_index: int

    @property
    def register(self) -> Register:
        """Evaluation layout: ancilla first, then the original variables."""
        base = tuple(v for v in qvar_set(self.transformed) if v != self.ancilla)
        return Register((self.ancilla,) + base)


def fresh_ancilla(register: Register, j: int) -> QVar:
    """Ancilla named after the parameter, counter-suffixed on collision."""
    taken = set(register.names)
    name = f"A{j}"
    n = 0
    while name in taken:
        n += 1
        name = f"A{j}_{n}"
    return QVar(name, 2)


def differentiate(p, j: int, k: int | None = None) -> DiffResult:
    """Differentiate an additive program with respect to parameter ``j``."""
    if j < 1:
        raise ValidationError("parameter indices are 1-based")
    if k is not None and j > k:
        raise ValidationError(f"parameter index {j} out of range 1..{k}")
    base = qvar_set(p)
    ancilla = fresh_ancilla(base, j)
    extended = Register((ancilla,) + tuple(base))
    transformed = _transform(p, j, ancilla, extended)
    return DiffResult(transformed, ancilla, j)


def _transform(p, j, ancilla, extended):
    trivial = Abort(extended)
    if isinstance(p, (Abort, Skip, Init)):
        return trivial
    if isinstance(p, Unitary):
        if trivially_uses(p.gate, j):
            return trivial
        check_differentiable(p.gate)
        target = Register((ancilla,) + tuple(p.register))
        return Unitary(GadgetRotation(p.gate.axis, p.gate.param), target)
    if isinstance(p, Seq):
        return Sum(
            Seq(_transform(p.first, j, ancilla, extended), p.second),
            Seq(p.first, _transform(p.second, j, ancilla, extended)),
        )
    if isinstance(p, Case):
        return Case(
            p.measured,
            p.measurement,
            tuple(_transform(b, j, ancilla, extended) for b in p.branches),
        )
    if isinstance(p, While):
        return _transform(expand_all_whiles(p), j, ancilla, extended)
    if isinstance(p, Sum):
        return Sum(
            _transform(p.left, j, ancilla, extended),
            _transform(p.right, j, ancilla, extended),
        )
    raise ValidationError(f"not a program node: {type(p).__name__}")


def central_difference(f, theta, j: int, h: float = 1e-4) -> float:
    """(f(theta + h e_j) - f(theta - h e_j)) / 2h."""
    up = np.array(theta, dtype=float)
    down = up.copy()
    up[j - 1] += h
    down[j - 1] -= h
    return (f(up) - f(down)) / (2 * h)


def judgement_holds(original, derivative, j: int, *, rng=None,
                    n_points: int = 5, n_pairs: int = 5,
                    h: float = 1e-4, tol: float = 1e-5) -> bool:
    """Validate that ``derivative`` computes the parameter-j derivative
    of ``original``'s read-out.

    Draws ``n_points`` random parameter vectors and ``n_pairs`` random
    observable/state pairs per point; the single ``derivative`` program
    must match central finite differences on all of them within ``tol``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    base = qvar_set(original)
    extra = [v for v in qvar_set(derivative) if v not in base]
    if len(extra) != 1 or extra[0].dim != 2:
        raise ValidationError(
            "derivative must extend the original register by exactly one "
            f"qubit; extra variables: {[v.name for v in extra]}"
        )
    ancilla = extra[0]
    k = max(max_param_index(original), max_param_index(derivative), j)
    dim = base.dim
    for _ in range(n_points):
        theta = rng.uniform(0, 2 * np.pi, size=k)
        for _ in range(n_pairs):
            o = random_observable(rng, dim)
            rho = random_density(rng, dim)
            got = observable_semantics_ancilla(
                derivative, o, rho, theta, ancilla, base
            )
            want = central_difference(
                lambda th: observable_semantics(original, o, rho, th, base),
                theta, j, h,
            )
            if abs(got - want) > tol:
                return False
    return True
