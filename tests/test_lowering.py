"""The lowered evaluators against the dense reference, at 1e-9.

``denote``, ``program_dual_observable`` and ``sample_trajectory`` apply
local matrices to the target axes of one lowered op list; the reference
in ``dense_reference`` lifts every operator to the full register with
``linalg.embed`` and multiplies densely.  Also here: the simulation cap,
which every exact and sampled path applies before it allocates.
"""

from pathlib import Path

import numpy as np
import pytest

import dense_reference as ref
from progen import corpus, random_theta
from qwad.ast import (
    COMP_BASIS,
    Case,
    Init,
    Measurement,
    QVar,
    Register,
    Unitary,
    While,
    expand_all_whiles,
    seq_all,
)
from qwad.cli import main
from qwad.errors import ValidationError
from qwad.gates import FixedGate, GadgetRotation, LiteralGate, MatrixLiteral, Rotation
from qwad.gradient import (
    derivative_program,
    dual_gradient_operator,
    estimate_grad_sampled,
    grad_exact,
    sample_trajectory,
)
from qwad.linalg import (
    DensityOperator,
    Observable,
    PAULI_Z,
    random_density,
    random_unitary,
)
from qwad.semantics import denote, program_dual_observable
from qwad.syntax import parse

TOL = 1e-9
BENCH = Path(__file__).resolve().parent.parent / "programs" / "bench"
FIXTURES = sorted(BENCH.glob("*.qw"))


def random_operator(rng, dim):
    """A general complex matrix: neither Hermitian nor normal."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def assert_matches_reference(p, theta, reg, rng):
    rho = random_density(rng, reg.dim)
    got = denote(p, theta, rho, reg).mat
    assert np.max(np.abs(got - ref.denote(p, theta, rho.mat, reg))) <= TOL
    o = random_operator(rng, reg.dim)
    got = program_dual_observable(p, theta, o, reg)
    assert np.max(np.abs(got - ref.dual(p, theta, o, reg))) <= TOL


def assert_trajectory_matches_reference(p, theta, reg, seed):
    psi0 = random_ket(np.random.default_rng(seed), reg.dim)
    t = sample_trajectory(p, theta, psi0, np.random.default_rng(seed), reg)
    state, alive, weight, outcomes = ref.trajectory(
        p, theta, psi0, np.random.default_rng(seed), reg
    )
    assert t.outcomes == outcomes
    assert t.aborted == (not alive)
    assert abs(t.weight - weight) <= TOL
    assert np.max(np.abs(t.state - state)) <= TOL


class TestCorpus:
    def test_denote_and_dual(self, rng):
        for p, reg, k in corpus(2031, 50):
            assert_matches_reference(p, random_theta(rng, k), reg, rng)

    def test_sample_trajectory(self, rng):
        for i, (p, reg, k) in enumerate(corpus(2031, 50)):
            theta, p = random_theta(rng, k), expand_all_whiles(p)
            for shot in range(3):
                assert_trajectory_matches_reference(p, theta, reg, 100 * i + shot)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_bench_fixture_derivative_members(path):
    unit = parse(path.read_text())
    rng = np.random.default_rng(len(path.stem))
    theta = random_theta(rng, unit.k)
    for j in range(1, unit.k + 1):
        dp = derivative_program(unit.body, j)
        full = Register((dp.ancilla,) + tuple(unit.register))
        for i, member in enumerate(dp.members):
            assert_matches_reference(member, theta, full, rng)
            assert_trajectory_matches_reference(member, theta, full, 1000 * j + i)


class TestHandCases:
    def setup_method(self):
        self.q1, self.q2, self.q3 = QVar("q1"), QVar("q2"), QVar("q3")

    def test_cnot_on_reversed_wires(self, rng):
        reg = Register.of(self.q1, self.q2, self.q3)
        p = Unitary(FixedGate("CNOT"), Register.of(self.q2, self.q1))
        assert_matches_reference(p, [], reg, rng)
        # control q2 = 1 flips q1: |010> -> |110>
        out = denote(p, [], DensityOperator.basis(8, 0b010), reg)
        assert out.mat[0b110, 0b110] == pytest.approx(1.0)

    def test_gadget_on_non_adjacent_wires(self, rng):
        anc = QVar("anc")
        reg = Register.of(anc, self.q1, self.q2, self.q3)
        p = seq_all([
            Unitary(Rotation("Y", 1), Register.of(self.q2)),
            Unitary(GadgetRotation("X", 1), Register.of(anc, self.q3)),
            Unitary(GadgetRotation("ZZ", 2), Register.of(anc, self.q3, self.q1)),
        ])
        assert_matches_reference(p, [0.7, 1.9], reg, rng)
        assert_trajectory_matches_reference(p, [0.7, 1.9], reg, 5)

    def test_qutrit_init_and_literal_kraus_case(self, rng):
        n = QVar("n", 3)
        reg = Register.of(self.q1, n)
        half = np.sqrt(0.5)
        guard = Measurement((
            MatrixLiteral.of(np.diag([1.0, half, 0.0])),
            MatrixLiteral.of(np.diag([0.0, half, 1.0])),
        ))
        p = seq_all([
            Unitary(LiteralGate(MatrixLiteral.of(random_unitary(rng, 3))), Register.of(n)),
            Case(Register.of(n), guard, (
                Unitary(Rotation("X", 1), Register.of(self.q1)),
                seq_all([Init(n), Unitary(Rotation("Y", 1), Register.of(self.q1))]),
            )),
            Init(n),
        ])
        assert_matches_reference(p, [0.4], reg, rng)
        for seed in range(5):
            assert_trajectory_matches_reference(p, [0.4], reg, seed)

    def test_while_with_bound_three(self, rng):
        reg = Register.of(self.q1, self.q2)
        body = seq_all([
            Unitary(Rotation("Y", 1), Register.of(self.q1)),
            Unitary(FixedGate("CNOT"), Register.of(self.q1, self.q2)),
        ])
        p = While(3, Register.of(self.q1), COMP_BASIS, body)
        assert_matches_reference(p, [1.1], reg, rng)
        # three guard checks: the last outcome 1 aborts, so mass is lost
        out = denote(p, [1.1], DensityOperator.basis(4, 0b10), reg)
        assert out.trace < 1.0

    def test_dual_of_non_hermitian_operator(self, rng):
        reg = Register.of(self.q1, self.q2)
        p = seq_all([
            Unitary(Rotation("XX", 1), Register.of(self.q2, self.q1)),
            Case(Register.of(self.q2), COMP_BASIS, (
                Init(self.q1), Unitary(FixedGate("H"), Register.of(self.q1)),
            )),
        ])
        o = random_operator(rng, 4)
        dual = program_dual_observable(p, [0.3], o, reg)
        assert np.max(np.abs(dual - ref.dual(p, [0.3], o, reg))) <= TOL
        for _ in range(5):
            rho = random_density(rng, 4)
            lhs = np.trace(o @ denote(p, [0.3], rho, reg).mat)
            assert abs(lhs - np.trace(dual @ rho.mat)) <= TOL


class TestSimulationCap:
    """Every path refuses an 11-qubit register (2^11 > 2^10) before it
    allocates a register-sized array."""

    def setup_method(self):
        self.reg = Register(tuple(QVar(f"q{i}") for i in range(1, 12)))
        self.p = Unitary(Rotation("X", 1), Register.of(self.reg[0]))

    def test_dual(self):
        with pytest.raises(ValidationError, match="cap"):
            program_dual_observable(self.p, [0.1], np.eye(2), self.reg)

    def test_exact_gradient(self):
        with pytest.raises(ValidationError, match="cap"):
            grad_exact(self.p, [0.1], 1, Observable(PAULI_Z), DensityOperator.basis(2, 0),
                       self.reg)

    def test_dual_gradient_operator(self):
        dp = derivative_program(self.p, 1)
        with pytest.raises(ValidationError, match="cap"):
            dual_gradient_operator(dp, [0.1], Observable(PAULI_Z), self.reg)

    def test_sampled_gradient(self):
        with pytest.raises(ValidationError, match="cap"):
            estimate_grad_sampled(
                self.p, [0.1], 1, Observable(PAULI_Z), DensityOperator.basis(2, 0),
                0.1, seed=0, register=self.reg,
            )

    def test_sampled_gradient_counts_the_ancilla(self):
        # ten qubits run forward, but with the ancilla the sampler needs 2^11
        reg = Register(self.reg.vars[:10])
        with pytest.raises(ValidationError, match="cap"):
            estimate_grad_sampled(
                self.p, [0.1], 1, Observable(PAULI_Z), DensityOperator.basis(2, 0),
                0.1, seed=0, register=reg,
            )

    def test_cli_sampled_grad_exits_3(self, capsys, tmp_path):
        src = tmp_path / "wide.qw"
        src.write_text(
            "qubit " + ",".join(f"q{i}" for i in range(1, 11)) + "\nparams 1\n"
            "q1 := Rx(th1)[q1]\n"
        )
        code = main([
            "grad", "--sampled", "--param", "1", "--theta", "0.5",
            "--obs", "Z:q1", str(src),
        ])
        assert code == 3
        assert "cap" in capsys.readouterr().err
