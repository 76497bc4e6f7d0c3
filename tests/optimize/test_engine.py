"""Tests for the RewriteEngine (the oracle itself: tests/test_verify.py)."""

import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import OptimizationError, VerificationError
from repro.gates import H, T, T_DAG
from repro.gates.qutrit import X01, X_MINUS_1, X_PLUS_1
from repro.optimize import (
    OptimizationError as ReexportedError,
    RewriteEngine,
    optimize_circuit,
    resolve_engine,
)
from repro.qudits import qubits, qutrits
from repro.toffoli.registry import construction_circuit


def _cancelable_circuit():
    a, b = qubits(2)
    circuit = Circuit()
    circuit.append(T.on(a))
    circuit.append(H.on(b))
    circuit.append(T_DAG.on(a))
    circuit.append(H.on(b))
    return circuit


class TestRewriteEngine:
    def test_fixpoint_removes_everything_cancelable(self):
        optimized, report = RewriteEngine().run(_cancelable_circuit())
        assert optimized.num_operations == 0
        assert report.gates_removed == 4
        assert report.cost_after.total_gates == 0

    def test_nothing_to_do_returns_original_object(self):
        a, = qubits(1)
        circuit = Circuit()
        circuit.append(H.on(a))
        optimized, report = RewriteEngine().run(circuit)
        assert optimized is circuit
        assert report.gates_removed == 0
        assert report.verified is None

    def test_verify_strict_runs_an_oracle(self):
        optimized, report = RewriteEngine(verify="strict").run(
            _cancelable_circuit()
        )
        assert report.verified in ("classical", "statevector")

    def test_verify_auto_skips_infeasible_widths(self):
        # 13 qubits with non-classical gates: no oracle fits.
        wires = qubits(13)
        circuit = Circuit()
        for w in wires:
            circuit.append(H.on(w))
        circuit.append(T.on(wires[0]))
        circuit.append(T_DAG.on(wires[0]))
        optimized, report = RewriteEngine(verify="auto").run(circuit)
        assert optimized.num_operations < circuit.num_operations
        assert report.verified == "skipped"

    def test_verify_strict_refuses_infeasible_widths(self):
        wires = qubits(13)
        circuit = Circuit([H.on(w) for w in wires])
        circuit.append(T.on(wires[0]))
        circuit.append(T_DAG.on(wires[0]))
        with pytest.raises(
            VerificationError, match="cannot verify optimization"
        ):
            RewriteEngine(verify="strict").run(circuit)

    def test_invalid_verify_mode_rejected(self):
        with pytest.raises(ValueError):
            RewriteEngine(verify="sometimes")

    def test_verify_true_aliases_strict(self):
        assert RewriteEngine(verify=True).verify == "strict"

    def test_report_totals_merge_iterations(self):
        _, report = RewriteEngine().run(_cancelable_circuit())
        totals = report.totals()
        assert totals["cancel-inverses"].gates_removed == 4
        assert report.iterations >= 1

    def test_report_serializes(self):
        import json

        _, report = RewriteEngine().run(_cancelable_circuit())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["cost_before"]["total_gates"] == 4
        assert payload["cost_after"]["total_gates"] == 0

    def test_he_tree_reduction_is_verified(self):
        circuit = construction_circuit("he_tree", 3)
        optimized, report = RewriteEngine(verify="strict").run(circuit)
        assert report.gates_removed > 0
        assert report.verified == "statevector"

    def test_classical_circuit_uses_classical_oracle(self):
        a, b = qutrits(2)
        circuit = Circuit()
        circuit.append(X_PLUS_1.on(a))
        circuit.append(X01.on(b))
        circuit.append(X_MINUS_1.on(a))
        optimized, report = RewriteEngine(verify="strict").run(circuit)
        assert optimized.num_operations < circuit.num_operations
        assert report.verified == "classical"

    def test_one_shot_helper_matches_engine(self):
        circuit = _cancelable_circuit()
        optimized, report = optimize_circuit(circuit)
        assert optimized.num_operations == 0

    def test_max_iterations_validated(self):
        with pytest.raises(ValueError):
            RewriteEngine(max_iterations=0)


class TestResolveEngine:
    def test_none_and_false_mean_off(self):
        assert resolve_engine(None) is None
        assert resolve_engine(False) is None

    def test_true_gives_default_engine(self):
        engine = resolve_engine(True)
        assert [p.name for p in engine.passes] == [
            "cancel-inverses", "fuse-phases", "pack-commuting",
        ]

    def test_comma_string_selects_passes(self):
        engine = resolve_engine("cancel-inverses, fuse-phases")
        assert [p.name for p in engine.passes] == [
            "cancel-inverses", "fuse-phases",
        ]

    def test_engine_passes_through(self):
        engine = RewriteEngine()
        assert resolve_engine(engine) is engine

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            resolve_engine(42)


class TestExports:
    def test_reexported_error_is_the_same_type(self):
        assert ReexportedError is OptimizationError


# ---------------------------------------------------------------------------
# Parity with the fixpoint loop that re-ran every pass each sweep
# ---------------------------------------------------------------------------


def _reference_run(engine, circuit):
    """The engine's fixpoint loop before unchanged passes were skipped:
    every pass runs in every sweep, whatever it saw last time."""
    from repro.optimize.engine import OptimizationReport

    cost_before = engine.cost_model.cost(circuit)
    report = OptimizationReport(
        cost_before=cost_before, cost_after=cost_before
    )
    current = circuit
    current_cost = cost_before
    for _ in range(engine.max_iterations):
        report.iterations += 1
        improved = False
        for rewrite_pass in engine.passes:
            candidate, stats = rewrite_pass.run(current)
            if stats.applications:
                candidate_cost = engine.cost_model.cost(candidate)
                if candidate_cost.score() < current_cost.score():
                    stats.accepted = True
                    current = candidate
                    current_cost = candidate_cost
                    improved = True
            report.pass_stats.append(stats)
        if not improved:
            break
    report.cost_after = current_cost
    return current, report


def _optimizer_inputs():
    """(case, circuit) for every optimize stage of the golden compile
    workloads: the pre-route and post-route inputs."""
    from repro.execution.passes import OptimizePass
    from repro.execution.pipeline_spec import PIPELINE_SPECS

    from tests.arch.test_compile_golden import cases, workloads

    out = []
    for key, pipeline in cases():
        circuit = workloads()[key][1]()
        for stage in PIPELINE_SPECS[pipeline].build():
            if isinstance(stage, OptimizePass):
                out.append((f"{key}|{pipeline}|{stage.name}", circuit))
            circuit = stage.transform(circuit)
    return out


class TestSkippedPassParity:
    """Skipping a pass whose input has not changed since it last ran
    leaves every output circuit and report exactly as the full loop."""

    def test_golden_workloads_match_the_full_fixpoint_loop(
        self, monkeypatch
    ):
        from repro.execution.cache import circuit_fingerprint
        from repro.optimize.passes import PASS_TYPES

        inputs = _optimizer_inputs()
        assert len(inputs) > 80
        walks = {"reference": 0, "engine": 0}
        for cls in PASS_TYPES.values():
            original = cls.rewrite_segment

            def counted(self, ops, original=original):
                walks[walks["on"]] += 1
                return original(self, ops)

            monkeypatch.setattr(cls, "rewrite_segment", counted)

        for case, circuit in inputs:
            engine = RewriteEngine()
            walks["on"] = "reference"
            before = walks["reference"]
            expected, expected_report = _reference_run(engine, circuit)
            reference_walks = walks["reference"] - before
            walks["on"] = "engine"
            before = walks["engine"]
            optimized, report = engine.run(circuit)
            engine_walks = walks["engine"] - before
            assert circuit_fingerprint(optimized) == circuit_fingerprint(
                expected
            ), case
            assert [list(m) for m in optimized.moments] == [
                list(m) for m in expected.moments
            ], case
            assert report.to_dict() == expected_report.to_dict(), case
            assert engine_walks <= reference_walks, case
        assert walks["engine"] < walks["reference"]

    def test_unchanged_input_reuses_the_rejected_stats(self, monkeypatch):
        from repro.optimize.passes import CommutationPacking

        runs = []
        original = CommutationPacking.run

        def counted(self, circuit):
            runs.append(circuit)
            return original(self, circuit)

        monkeypatch.setattr(CommutationPacking, "run", counted)
        # Sweep 1 cancels T/T_DAG and H/H; sweep 2 accepts nothing, so
        # packing (which saw the sweep-1 result) is not re-run.
        optimized, report = RewriteEngine().run(_cancelable_circuit())
        assert report.iterations == 2
        names = [s.name for s in report.pass_stats]
        assert names == ["cancel-inverses", "fuse-phases",
                         "pack-commuting"] * 2
        assert len(runs) == 1
        first, second = report.pass_stats[2], report.pass_stats[5]
        assert first == second and first is not second
        assert not second.accepted
