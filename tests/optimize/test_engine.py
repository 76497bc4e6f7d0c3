"""Tests for the RewriteEngine (the oracle itself: tests/test_verify.py)."""

import random

import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import OptimizationError, VerificationError
from repro.gates import CNOT, CZ, H, S, T, T_DAG, X, Z, Z3
from repro.gates.qutrit import X01, X_MINUS_1, X_PLUS_1
from repro.optimize import (
    OptimizationError as ReexportedError,
    RewriteEngine,
    optimize_circuit,
    resolve_engine,
)
from repro.qudits import Qudit, qubits, qutrits
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

    def test_one_run_builds_one_circuit(self, monkeypatch):
        circuit = construction_circuit("qubit_one_dirty", 3)
        built = []
        original = Circuit.__init__

        def counted(self, operations=()):
            built.append(self)
            original(self, operations)

        monkeypatch.setattr(Circuit, "__init__", counted)
        optimized, report = RewriteEngine().run(circuit)
        tried = [s for s in report.pass_stats if s.applications]
        assert sum(s.accepted for s in tried) == 2 and len(tried) == 4
        # Candidates are priced as operation lists; only the result of
        # the last sweep becomes a circuit.
        assert built == [optimized]


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
    """The engine's fixpoint loop before unchanged passes were skipped
    and candidates were priced unbuilt: every pass runs in every sweep
    through ``RewritePass.run``, whatever it saw last time, and every
    candidate is built and priced with ``cost(circuit)``."""
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


#: Qubit and qutrit gates of the seeded segment circuits.
_QUBIT_GATES = (H, S, T, T_DAG, X, Z)
_QUTRIT_GATES = (X_PLUS_1, X_MINUS_1, X01, Z3)


def _segmented_circuit(seed, cancelled, trailing_barrier=False):
    """Three barrier segments of seeded gates on three qubits and a
    qutrit.  Segment ``cancelled`` (or none, for None) is a run
    followed by its inverse in reverse, so the optimizer removes it
    entirely; ``trailing_barrier`` ends the circuit with a barrier."""
    rng = random.Random(seed)
    wires = qubits(3)
    qutrit = Qudit(3, 3)
    circuit = Circuit()
    for position in range(3):
        if position:
            circuit.barrier()
        ops = []
        for _ in range(rng.randint(6, 14)):
            roll = rng.random()
            if roll < 0.3:
                a, b = rng.sample(wires, 2)
                ops.append(rng.choice((CNOT, CZ)).on(a, b))
            elif roll < 0.45:
                ops.append(rng.choice(_QUTRIT_GATES).on(qutrit))
            else:
                ops.append(rng.choice(_QUBIT_GATES).on(rng.choice(wires)))
        if position == cancelled:
            ops += [op.inverse() for op in reversed(ops)]
        circuit.append(ops)
    if trailing_barrier:
        circuit.barrier()
    return circuit


def _segment_cases():
    layouts = [
        ("first", 0, False), ("middle", 1, False), ("last", 2, False),
        ("trailing", None, True), ("last-trailing", 2, True),
    ]
    return [
        (f"{name}-{seed}", seed, cancelled, trailing)
        for name, cancelled, trailing in layouts
        for seed in range(4)
    ]


def _assert_same_run(case, optimized, report, expected, expected_report):
    from repro.execution.cache import circuit_fingerprint

    assert circuit_fingerprint(optimized) == circuit_fingerprint(
        expected
    ), case
    assert [list(m) for m in optimized.moments] == [
        list(m) for m in expected.moments
    ], case
    # Barrier history and floor included.
    assert optimized.to_dict() == expected.to_dict(), case
    assert report.to_dict() == expected_report.to_dict(), case


class TestSkippedPassParity:
    """Skipping a pass whose input has not changed since it last ran,
    and pricing candidates without building them, leave every output
    circuit and report exactly as the full loop."""

    def test_golden_workloads_match_the_full_fixpoint_loop(
        self, monkeypatch
    ):
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
            _assert_same_run(
                case, optimized, report, expected, expected_report
            )
            assert engine_walks <= reference_walks, case
        assert walks["engine"] < walks["reference"]

    @pytest.mark.parametrize(
        "case,seed,cancelled,trailing", _segment_cases(),
        ids=[case[0] for case in _segment_cases()],
    )
    def test_segments_that_cancel_away_match_the_full_loop(
        self, case, seed, cancelled, trailing
    ):
        circuit = _segmented_circuit(seed, cancelled, trailing)
        engine = RewriteEngine()
        expected, expected_report = _reference_run(engine, circuit)
        optimized, report = engine.run(circuit)
        _assert_same_run(case, optimized, report, expected, expected_report)
        if cancelled is not None:
            assert len(optimized.barrier_segments()) < len(
                circuit.barrier_segments()
            ), case

    def test_unchanged_input_reuses_the_rejected_stats(self, monkeypatch):
        from repro.optimize.passes import CommutationPacking

        walks = []
        original = CommutationPacking.rewrite_segment

        def counted(self, ops):
            walks.append(list(ops))
            return original(self, ops)

        monkeypatch.setattr(CommutationPacking, "rewrite_segment", counted)
        # Sweep 1 cancels T/T_DAG and H/H; sweep 2 accepts nothing, so
        # packing (which walked the one sweep-1 segment) is not re-run.
        optimized, report = RewriteEngine().run(_cancelable_circuit())
        assert report.iterations == 2
        names = [s.name for s in report.pass_stats]
        assert names == ["cancel-inverses", "fuse-phases",
                         "pack-commuting"] * 2
        assert walks == [[]]
        first, second = report.pass_stats[2], report.pass_stats[5]
        assert first == second and first is not second
        assert not second.accepted
