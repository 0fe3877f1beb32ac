"""The reverse-mode adjoint sweep against the derivative members, at 1e-9.

``grad_adjoint`` gives every partial of a read-out from one forward and
one backward sweep on the base register; ``grad_exact`` sums the
ancilla-Z read-out over the compiled derivative members of one
parameter on the ancilla-extended register.  The second is the oracle
for the first, and ``dense_reference.train_losses`` (a training loop
whose gradient comes from ``dual_gradient_operator``) is the oracle for
``casestudy.train``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import dense_reference as ref
from progen import corpus, random_theta
from qwad import cli
from qwad.ast import (
    COMP_BASIS,
    Abort,
    Case,
    Init,
    Measurement,
    QVar,
    Register,
    Sum,
    Unitary,
    While,
    seq_all,
)
from qwad.casestudy import (
    REGISTER,
    Dataset4,
    TrainConfig,
    build_p1,
    build_p2,
    classify,
    input_state,
    loss_gradient,
    readout_observable,
    train,
)
from qwad.errors import ValidationError
from qwad.gates import (
    ControlledShiftRotation,
    FixedGate,
    LiteralGate,
    MatrixLiteral,
    Rotation,
)
from qwad.gradient import grad_adjoint, grad_exact
from qwad.linalg import (
    DensityOperator,
    Observable,
    PAULI_Z,
    random_density,
    random_observable,
    random_unitary,
)
from qwad.syntax import parse

TOL = 1e-9
BENCH = Path(__file__).resolve().parent.parent / "programs" / "bench"
FIXTURES = sorted(BENCH.glob("*.qw"))


def assert_matches_members(p, theta, reg, rng):
    o = random_observable(rng, reg.dim)
    rho = random_density(rng, reg.dim)
    got = grad_adjoint(p, theta, o, rho, reg)
    assert got.shape == (len(theta),)
    for j in range(1, len(theta) + 1):
        assert abs(got[j - 1] - grad_exact(p, theta, j, o, rho, reg)) <= TOL


def test_corpus(rng):
    for p, reg, k in corpus(2031, 50):
        assert_matches_members(p, random_theta(rng, k), reg, rng)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_bench_fixture(path):
    unit = parse(path.read_text())
    rng = np.random.default_rng(len(path.stem))
    assert_matches_members(unit.body, random_theta(rng, unit.k), unit.register, rng)


class TestHandCases:
    def setup_method(self):
        self.q1, self.q2, self.q3 = QVar("q1"), QVar("q2"), QVar("q3")
        self.reg = Register.of(self.q1, self.q2, self.q3)

    def rot(self, axis, j, *qs):
        return Unitary(Rotation(axis, j), Register.of(*qs))

    def test_parameter_used_twice(self, rng):
        p = seq_all([
            self.rot("X", 1, self.q1),
            Unitary(FixedGate("CNOT"), Register.of(self.q1, self.q2)),
            self.rot("Y", 1, self.q2),
            self.rot("Z", 2, self.q3),
        ])
        assert_matches_members(p, [0.8, 2.1], self.reg, rng)

    def test_init_mid_program(self, rng):
        p = seq_all([
            self.rot("Y", 1, self.q1),
            Unitary(FixedGate("CNOT"), Register.of(self.q1, self.q3)),
            Init(self.q1),
            self.rot("X", 2, self.q1),
            self.rot("XX", 1, self.q1, self.q3),
        ])
        assert_matches_members(p, [0.3, 1.4], self.reg, rng)

    def test_abort_inside_one_branch(self, rng):
        p = seq_all([
            self.rot("X", 1, self.q1),
            Case(Register.of(self.q1), COMP_BASIS, (
                seq_all([self.rot("Y", 2, self.q2), Abort(self.reg)]),
                self.rot("Y", 1, self.q2),
            )),
            self.rot("Z", 2, self.q2),
        ])
        assert_matches_members(p, [0.9, 0.2], self.reg, rng)

    def test_while_with_bound_three(self, rng):
        body = seq_all([
            self.rot("Y", 1, self.q1),
            Unitary(FixedGate("CNOT"), Register.of(self.q1, self.q2)),
            self.rot("X", 2, self.q2),
        ])
        p = seq_all([
            self.rot("X", 2, self.q1),
            While(3, Register.of(self.q1), COMP_BASIS, body),
            self.rot("ZZ", 1, self.q1, self.q2),
        ])
        assert_matches_members(p, [1.1, 0.6], self.reg, rng)

    def test_qutrit_literal_kraus_case(self, rng):
        n = QVar("n", 3)
        reg = Register.of(self.q1, n)
        half = np.sqrt(0.5)
        guard = Measurement((
            MatrixLiteral.of(np.diag([1.0, half, 0.0])),
            MatrixLiteral.of(np.diag([0.0, half, 1.0])),
        ))
        p = seq_all([
            Unitary(LiteralGate(MatrixLiteral.of(random_unitary(rng, 3))), Register.of(n)),
            self.rot("X", 2, self.q1),
            Case(Register.of(n), guard, (
                self.rot("X", 1, self.q1),
                seq_all([Init(n), self.rot("Y", 1, self.q1)]),
            )),
            Init(n),
            self.rot("Z", 2, self.q1),
        ])
        assert_matches_members(p, [0.4, 1.7], reg, rng)

    def test_couplings_on_non_adjacent_reversed_wires(self, rng):
        p = seq_all([
            self.rot("Y", 1, self.q2),
            self.rot("XX", 1, self.q3, self.q1),
            self.rot("YY", 2, self.q3, self.q1),
            self.rot("ZZ", 3, self.q3, self.q1),
        ])
        assert_matches_members(p, [0.7, 1.9, 2.6], self.reg, rng)

    def test_abort_at_top_level_is_zero(self, rng):
        p = seq_all([self.rot("X", 1, self.q1), Abort(self.reg)])
        got = grad_adjoint(p, [0.5], random_observable(rng, 8), random_density(rng, 8),
                           self.reg)
        assert list(got) == [0.0]

    def test_unused_parameters_are_zero(self, rng):
        p = self.rot("X", 1, self.q1)
        got = grad_adjoint(p, [0.5, 1.0, 2.0], Observable(PAULI_Z),
                           DensityOperator.basis(2, 0))
        assert got[0] == pytest.approx(-np.sin(0.5), abs=TOL)
        assert list(got[1:]) == [0.0, 0.0]

    def test_non_rotation_parameter_gate_is_refused(self):
        anc = QVar("anc")
        p = Unitary(ControlledShiftRotation("X", 1), Register.of(anc, self.q1))
        with pytest.raises(ValidationError, match="no derivative rule"):
            grad_adjoint(p, [0.5], Observable(np.eye(4)), DensityOperator.basis(4, 0))

    def test_non_hermitian_input_is_refused(self):
        p = self.rot("X", 1, self.q1)
        with pytest.raises(ValidationError, match="Hermitian"):
            grad_adjoint(p, [0.5], PAULI_Z, np.array([[0, 1], [0, 0]]))

    def test_additive_program_is_refused(self):
        p = Sum(self.rot("X", 1, self.q1), self.rot("Y", 2, self.q1))
        with pytest.raises(ValidationError, match="plain programs"):
            grad_adjoint(p, [0.3, 1.2], Observable(PAULI_Z), DensityOperator.basis(2, 0))


class TestLossGradient:
    """loss_gradient against grad_exact folded over the inputs: the loss
    gradient is sum_z r_z df_z, and f_z is linear in the input state, so
    the sum folds into one positive and one negative mixture of basis
    states, each a valid density operator."""

    @pytest.mark.parametrize("build", [build_p1, build_p2], ids=["p1", "p2"])
    def test_matches_folded_members(self, build, rng):
        p = build()
        k = 24 if build is build_p1 else 36
        theta = rng.uniform(0, 2 * np.pi, k)
        residual = {z: classify(p, theta, z) - y for z, y in Dataset4.full()}
        parts = []
        for sign in (1, -1):
            ws = {z: sign * r for z, r in residual.items() if sign * r > 0}
            total = sum(ws.values())
            if total > 0:
                mat = sum(w / total * input_state(z).mat for z, w in ws.items())
                parts.append((sign * total, DensityOperator(mat)))
        obs = readout_observable()
        want = [
            sum(scale * grad_exact(p, theta, j, obs, rho, REGISTER) for scale, rho in parts)
            for j in range(1, k + 1)
        ]
        assert np.max(np.abs(loss_gradient(p, theta) - want)) <= TOL


@pytest.mark.parametrize("build", [build_p1, build_p2], ids=["p1", "p2"])
def test_training_trajectory_matches_member_gradients(build):
    cfg = TrainConfig(epochs=20, seed=42)
    got = train(build(), cfg).losses
    want = ref.train_losses(build(), cfg)
    assert len(got) == len(want) == 21
    assert np.max(np.abs(np.array(got) - want)) <= TOL


class TestSimulationCap:
    def test_eleven_qubits_refused_before_allocating(self):
        reg = Register(tuple(QVar(f"q{i}") for i in range(1, 12)))
        p = Unitary(Rotation("X", 1), Register.of(reg[0]))
        # the operands are 2x2: a refusal after allocating would fail on shape
        with pytest.raises(ValidationError, match="cap"):
            grad_adjoint(p, [0.1], Observable(PAULI_Z), DensityOperator.basis(2, 0), reg)

    def test_cli_refuses_before_parsing_the_observable(self, capsys, tmp_path, monkeypatch):
        def never(*args):
            raise AssertionError("the observable was parsed")

        monkeypatch.setattr(cli, "_parse_obs", never)
        monkeypatch.setattr(cli, "_parse_rho", never)
        src = tmp_path / "wide.qw"
        src.write_text(
            "qubit " + ",".join(f"q{i}" for i in range(1, 11)) + "\nparams 1\n"
            "q1 := Rx(th1)[q1]\n"
        )
        code = cli.main([
            "grad", "--sampled", "--param", "1", "--theta", "0.5",
            "--obs", "Z:q1", str(src),
        ])
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_cli_exact_gradient_runs_on_ten_qubits(self, capsys, tmp_path):
        src = tmp_path / "wide.qw"
        src.write_text(
            "qubit " + ",".join(f"q{i}" for i in range(1, 11)) + "\nparams 1\n"
            "q1 := Rx(th1)[q1]\n"
        )
        code = cli.main(["grad", "--theta", "0.5", "--obs", "Z:q1", str(src)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grad"][0] == pytest.approx(-np.sin(0.5), abs=TOL)
