import json
from pathlib import Path

import pytest

from qwad.ast import Case, Unitary, While, qvar_set
from qwad.benchmarks import BenchSpec, all_specs, bench_unit
from qwad.compiler import gate_count, layer_count, occurrence_count, resource_report
from qwad.errors import ValidationError
from qwad.gates import Rotation
from qwad.syntax import parse, print_source

FIXTURES = Path(__file__).resolve().parent.parent / "programs" / "bench"


def _walk(p):
    yield p
    for attr in ("first", "second", "left", "right", "body"):
        child = getattr(p, attr, None)
        if child is not None:
            yield from _walk(child)
    for b in getattr(p, "branches", ()):
        yield from _walk(b)


class TestShapes:
    def test_qnn_small_basic_has_18_parameterized_gates(self):
        p = bench_unit(BenchSpec("qnn", "s", "basic")).body
        rotations = [
            n for n in _walk(p) if isinstance(n, Unitary) and isinstance(n.gate, Rotation)
        ]
        assert len(rotations) == 18
        singles = [r for r in rotations if len(r.gate.axis) == 1]
        pairs = [r for r in rotations if len(r.gate.axis) == 2]
        assert len(singles) == 12 and len(pairs) == 6

    def test_while_variants_use_bound_two(self):
        for family in ("qnn", "vqe", "qaoa"):
            p = bench_unit(BenchSpec(family, "s", "while")).body
            loops = [n for n in _walk(p) if isinstance(n, While)]
            assert loops and all(w.bound == 2 for w in loops)

    def test_if_variants_have_guards(self):
        p = bench_unit(BenchSpec("vqe", "s", "if")).body
        assert any(isinstance(n, Case) for n in _walk(p))

    def test_every_declared_qubit_is_touched(self):
        for spec in all_specs():
            u = bench_unit(spec)
            assert qvar_set(u.body) == u.register, spec.name

    def test_layer_count_matches_spec(self):
        for spec in all_specs(scales=("s", "m")):
            assert layer_count(bench_unit(spec).body) == spec.layer_count, spec.name

    def test_shared_reuses_th1_across_first_pass(self):
        p = bench_unit(BenchSpec("qaoa", "s", "shared")).body
        assert occurrence_count(p, 1) == 3  # one X rotation per qubit

    def test_basic_uses_th1_once(self):
        for family in ("qnn", "vqe", "qaoa"):
            p = bench_unit(BenchSpec(family, "s", "basic")).body
            assert occurrence_count(p, 1) == 1

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            BenchSpec("qcnn", "s", "basic")
        with pytest.raises(ValidationError):
            BenchSpec("qnn", "xl", "basic")
        with pytest.raises(ValidationError):
            BenchSpec("qnn", "s", "maybe")


class TestCountBound:
    def test_nna_at_most_oc_small(self):
        for spec in all_specs(scales=("s",)):
            rep = resource_report(bench_unit(spec).body)
            for j, oc in rep.oc.items():
                assert rep.nna[j] <= oc, f"{spec.name} th{j}"

    def test_while_variants_prune_strictly(self):
        for family in ("qnn", "vqe", "qaoa"):
            rep = resource_report(bench_unit(BenchSpec(family, "s", "while")).body)
            assert rep.headline_nna < rep.headline_oc

    def test_medium_scale_headline_static(self):
        # static-only check: these programs are far past the exact
        # simulation cap, but counting needs no simulation
        for family in ("qnn", "vqe", "qaoa"):
            spec = BenchSpec(family, "m", "while")
            p = bench_unit(spec).body
            rep = resource_report(p)
            assert rep.headline_nna <= rep.headline_oc
            assert rep.qubit_count == spec.qubit_count


class TestReport:
    def test_columns_present(self):
        rep = resource_report(bench_unit(BenchSpec("qnn", "s", "if")).body)
        doc = json.loads(rep.to_json())
        for col in ("oc", "nna", "gates", "lines", "layers", "qubits",
                    "headline_oc", "headline_nna"):
            assert col in doc

    def test_gate_count_counts_loop_body_per_iteration(self):
        basic = bench_unit(BenchSpec("qaoa", "s", "basic")).body
        looped = bench_unit(BenchSpec("qaoa", "s", "while")).body
        # one extra block wrapped in a 2-bounded loop: body counts twice
        assert gate_count(looped) == gate_count(basic) * 3


class TestFixtures:
    @pytest.mark.parametrize("spec", all_specs(scales=("s",)), ids=lambda s: s.name)
    def test_committed_fixture_matches_generator(self, spec):
        path = FIXTURES / f"{spec.name}.qw"
        text = print_source(bench_unit(spec))
        assert path.exists(), f"fixture {path} missing; regenerate with scripts in README"
        assert path.read_text() == text
        assert parse(text) == bench_unit(spec)
