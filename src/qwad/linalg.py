"""Dense complex linear algebra and the quantum value types.

Everything downstream (semantics, differentiation, gradients) works with
the three wrapper types defined here:

* :class:`DensityOperator` -- positive semidefinite, trace at most one.
  Sub-unit trace encodes the probability mass of runs that aborted.
* :class:`Superoperator`   -- completely positive trace-non-increasing
  map in Kraus form.
* :class:`Observable`      -- Hermitian matrix with spectrum in [-1, 1].

Matrices are plain row-major ``numpy`` arrays of ``complex128``; the
wrappers validate their invariants once, at construction time, so the
evaluators can trust their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError

# Validation tolerances.  Kept identical across the package so drift in a
# long program is caught by whichever wrapper is constructed last.
HERM_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
IMAG_TOL = 1e-9

# Exact density-operator simulation holds dim x dim matrices; refuse
# registers past this point rather than thrash.
MAX_SIM_DIM = 2 ** 10


def as_matrix(m) -> np.ndarray:
    """Coerce to a C-contiguous complex128 2-D array, rejecting NaN/Inf."""
    a = np.ascontiguousarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValidationError("matrix contains NaN or Inf entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def check_square(m: np.ndarray, what: str = "matrix") -> int:
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    return m.shape[0]


def check_sim_dim(dim: int, max_dim: int | None = None) -> None:
    limit = MAX_SIM_DIM if max_dim is None else max_dim
    if dim > limit:
        raise ValidationError(
            f"register dimension {dim} exceeds the exact-simulation cap "
            f"{limit}; reduce the register or raise the cap explicitly"
        )


def herm_defect(m: np.ndarray) -> float:
    """Largest entry of |M - M^dagger|."""
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def tensor(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply, first factor most significant."""
    return np.kron(as_matrix(a), as_matrix(b))


@dataclass(frozen=True)
class DensityOperator:
    """A partial density operator: Hermitian, PSD, 0 <= trace <= 1."""

    mat: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        check_square(m, "density operator")
        if not self.validate:
            return
        d = herm_defect(m)
        if d > HERM_TOL:
            raise NumericError(f"density operator not Hermitian (defect {d:.3e})")
        # Hermitize before the eigenvalue check so a benign defect below
        # tolerance cannot produce complex eigenvalues.
        evals = np.linalg.eigvalsh((m + dagger(m)) / 2)
        if evals.size and evals[0] < -PSD_TOL:
            raise NumericError(
                f"density operator not PSD (min eigenvalue {evals[0]:.3e})"
            )
        tr = float(m.trace().real)
        if tr < -TRACE_TOL or tr > 1 + TRACE_TOL:
            raise NumericError(f"density operator trace {tr} outside [0, 1]")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(self.mat.trace().real)

    @staticmethod
    def zero(dim: int) -> "DensityOperator":
        return DensityOperator(np.zeros((dim, dim), complex))

    @staticmethod
    def basis(dim: int, index: int) -> "DensityOperator":
        if not 0 <= index < dim:
            raise ValidationError(f"basis index {index} out of range for dim {dim}")
        m = np.zeros((dim, dim), complex)
        m[index, index] = 1.0
        return DensityOperator(m)

    @staticmethod
    def pure(vec) -> "DensityOperator":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        return DensityOperator(np.outer(v, v.conj()))


@dataclass(frozen=True)
class Superoperator:
    """A trace-non-increasing map rho -> sum_k E_k rho E_k^dagger."""

    kraus: tuple

    def __post_init__(self):
        ops = tuple(as_matrix(k) for k in self.kraus)
        if not ops:
            raise ValidationError("superoperator needs at least one Kraus operator")
        rows, cols = ops[0].shape
        for k in ops:
            if k.shape != (rows, cols):
                raise ValidationError("Kraus operators must share one shape")
        object.__setattr__(self, "kraus", ops)
        total = sum(dagger(k) @ k for k in ops)
        evals = np.linalg.eigvalsh((total + dagger(total)) / 2)
        if evals[-1] > 1 + HERM_TOL:
            raise NumericError(
                f"channel increases trace (max eigenvalue of sum E^dag E is "
                f"{evals[-1]:.12f})"
            )

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    @staticmethod
    def unitary(u) -> "Superoperator":
        return Superoperator((as_matrix(u),))

    @staticmethod
    def identity(dim: int) -> "Superoperator":
        return Superoperator((np.eye(dim, dtype=complex),))


@dataclass(frozen=True)
class Observable:
    """A Hermitian read-out matrix with all eigenvalues in [-1, 1]."""

    mat: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        check_square(m, "observable")
        if not self.validate:
            return
        d = herm_defect(m)
        if d > HERM_TOL:
            raise NumericError(f"observable not Hermitian (defect {d:.3e})")
        evals = np.linalg.eigvalsh((m + dagger(m)) / 2)
        if evals[0] < -1 - HERM_TOL or evals[-1] > 1 + HERM_TOL:
            raise NumericError(
                f"observable spectrum [{evals[0]:.6f}, {evals[-1]:.6f}] "
                "escapes [-1, 1]"
            )

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def apply_channel(e: Superoperator, rho: DensityOperator) -> DensityOperator:
    """sum_k E_k rho E_k^dagger."""
    if e.in_dim != rho.dim:
        raise ValidationError(
            f"channel input dim {e.in_dim} does not match state dim {rho.dim}"
        )
    out = np.zeros((e.out_dim, e.out_dim), complex)
    for k in e.kraus:
        out += k @ rho.mat @ dagger(k)
    return DensityOperator(out)


def apply_dual(e: Superoperator, obs) -> np.ndarray:
    """Heisenberg-picture action sum_k E_k^dagger O E_k.

    Satisfies tr(O E(rho)) == tr(apply_dual(E, O) rho) for every rho.
    """
    o = as_matrix(obs)
    if o.shape[0] != e.out_dim:
        raise ValidationError(
            f"operator dim {o.shape[0]} does not match channel output dim "
            f"{e.out_dim}"
        )
    out = np.zeros((e.in_dim, e.in_dim), complex)
    for k in e.kraus:
        out += dagger(k) @ o @ k
    return out


def expectation(o: Observable, rho: DensityOperator) -> float:
    """tr(O rho), with any imaginary residue below tolerance discarded."""
    if o.dim != rho.dim:
        raise ValidationError(f"observable dim {o.dim} != state dim {rho.dim}")
    val = complex(np.trace(o.mat @ rho.mat))
    if abs(val.imag) > IMAG_TOL:
        raise NumericError(
            f"expectation has imaginary residue {val.imag:.3e}; "
            "observable or state is not Hermitian enough"
        )
    return val.real


def embed(op, on_dims, positions, all_dims) -> np.ndarray:
    """Embed ``op`` acting on selected tensor factors into the full space.

    ``all_dims`` lists the dimension of every factor of the full space,
    in layout order.  ``positions`` gives, in the operator's own wire
    order, the index of each factor it acts on; ``on_dims`` are the
    dimensions of those wires.  The remaining factors get the identity,
    and wires are permuted so an operator declared on (q2, q1) acts
    exactly as the swapped operator on (q1, q2) would.
    """
    op = as_matrix(op)
    n = len(all_dims)
    positions = list(positions)
    if len(set(positions)) != len(positions):
        raise ValidationError("embed requires distinct target positions")
    if any(p < 0 or p >= n for p in positions):
        raise ValidationError(
            f"target positions {positions} out of range for {n} factors"
        )
    want = 1
    for d in on_dims:
        want *= d
    if op.shape != (want, want):
        raise ValidationError(
            f"operator shape {op.shape} does not match target dims {tuple(on_dims)}"
        )
    for p, d in zip(positions, on_dims):
        if all_dims[p] != d:
            raise ValidationError(
                f"target position {p} has dim {all_dims[p]}, operator wire "
                f"expects {d}"
            )
    rest = [i for i in range(n) if i not in positions]
    rest_dim = 1
    for i in rest:
        rest_dim *= all_dims[i]
    full = np.kron(op, np.eye(rest_dim, dtype=complex))
    # Axis i of `full` (rows and columns alike) currently corresponds to
    # factor order positions + rest; permute back to layout order.
    order = positions + rest
    perm = [order.index(i) for i in range(n)]
    dims_in_order = [all_dims[i] for i in order]
    t = full.reshape(dims_in_order + dims_in_order)
    t = t.transpose(perm + [n + i for i in perm])
    total = int(np.prod(all_dims)) if n else 1
    return np.ascontiguousarray(t.reshape(total, total))


# -- common fixed matrices -------------------------------------------------

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


# -- random draws for validators and tests ---------------------------------

def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityOperator:
    """Random mixed state of full (or given) rank, trace exactly 1."""
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ dagger(g)
    return DensityOperator(m / m.trace().real)


def random_observable(rng: np.random.Generator, dim: int) -> Observable:
    """Random Hermitian matrix with spectrum drawn uniformly in [-1, 1]."""
    v = random_unitary(rng, dim)
    lam = rng.uniform(-1.0, 1.0, size=dim)
    return Observable(v @ np.diag(lam).astype(complex) @ dagger(v))


def random_channel(rng: np.random.Generator, dim: int, n_kraus: int = 3) -> Superoperator:
    """Random trace-preserving channel from a Stinespring-style draw."""
    g = rng.standard_normal((n_kraus * dim, dim)) + 1j * rng.standard_normal(
        (n_kraus * dim, dim)
    )
    q, _ = np.linalg.qr(g)  # isometry: dagger(q) @ q == I_dim
    kraus = tuple(q[i * dim : (i + 1) * dim, :] for i in range(n_kraus))
    return Superoperator(kraus)
