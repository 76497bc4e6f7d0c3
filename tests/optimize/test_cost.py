"""Tests for the optimizer cost models."""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.gates import CNOT, H, MatrixGate, S, T, T_DAG
from repro.gates.qutrit import QUTRIT_H, X01, X_PLUS_1, phase_gate
from repro.optimize import (
    COST_MODELS,
    CircuitCost,
    CostModel,
    GateCountCostModel,
    QutritCliffordTCostModel,
    resolve_cost_model,
)
from repro.qudits import qubits, qutrits


class TestCircuitCost:
    def test_score_orders_two_qudit_first(self):
        light = CircuitCost(
            depth=100, total_gates=100, two_qudit_gates=1,
            non_clifford_gates=50,
        )
        heavy = CircuitCost(
            depth=1, total_gates=2, two_qudit_gates=2,
            non_clifford_gates=0,
        )
        assert light.score() < heavy.score()

    def test_depth_breaks_full_ties(self):
        shallow = CircuitCost(
            depth=3, total_gates=5, two_qudit_gates=2,
            non_clifford_gates=1,
        )
        deep = CircuitCost(
            depth=4, total_gates=5, two_qudit_gates=2,
            non_clifford_gates=1,
        )
        assert shallow.score() < deep.score()

    def test_to_dict_round_trips_fields(self):
        cost = CircuitCost(
            depth=2, total_gates=3, two_qudit_gates=1,
            non_clifford_gates=0,
        )
        assert cost.to_dict() == {
            "depth": 2,
            "total_gates": 3,
            "two_qudit_gates": 1,
            "non_clifford_gates": 0,
        }


class TestQutritCliffordT:
    def test_qubit_clifford_set(self):
        model = QutritCliffordTCostModel()
        for gate in (H, S, CNOT, X01):
            assert model.is_clifford(gate), gate.name

    def test_t_gates_are_non_clifford(self):
        model = QutritCliffordTCostModel()
        assert not model.is_clifford(T)
        assert not model.is_clifford(T_DAG)

    def test_qutrit_shift_and_hadamard_are_clifford(self):
        model = QutritCliffordTCostModel()
        assert model.is_clifford(X_PLUS_1)
        assert model.is_clifford(QUTRIT_H)

    def test_qutrit_phase_grid(self):
        model = QutritCliffordTCostModel()
        # 2 pi / 3 sits on the qutrit Clifford grid; 2 pi / 9 is the
        # T-level grid; an irrational angle is neither.
        assert model.is_clifford(phase_gate(3, 1, 2 * np.pi / 3))
        assert not model.is_clifford(phase_gate(3, 1, 2 * np.pi / 9))
        assert not model.is_clifford(phase_gate(3, 1, 0.123))

    def test_opaque_wide_matrix_counts_as_non_clifford(self):
        model = QutritCliffordTCostModel()
        wide = np.kron(H.unitary(), np.eye(4))
        gate = MatrixGate(wide, (2, 2, 2), name="opaque3")
        assert not model.is_clifford(gate)

    def test_cost_counts_a_mixed_circuit(self):
        a, b = qubits(2)
        circuit = Circuit()
        circuit.append(H.on(a))
        circuit.append(T.on(b))
        circuit.append(CNOT.on(a, b))
        cost = QutritCliffordTCostModel().cost(circuit)
        assert cost.total_gates == 3
        assert cost.two_qudit_gates == 1
        assert cost.non_clifford_gates == 1
        assert cost.depth == circuit.depth


class TestSharedCliffordVerdicts:
    """Verdicts live in one process-wide table per ``atol``: a new model
    classifies only specs no model with its tolerance has seen."""

    @staticmethod
    def _counting(monkeypatch):
        classified = []
        original = QutritCliffordTCostModel._classify

        def counting(self, gate):
            classified.append(gate.canonical_spec())
            return original(self, gate)

        monkeypatch.setattr(QutritCliffordTCostModel, "_classify", counting)
        return classified

    @staticmethod
    def _circuit(angle):
        a, b = qutrits(2)
        circuit = Circuit()
        # A phase no other test builds, so its spec is new here.
        circuit.append(phase_gate(3, 1, angle).on(a))
        circuit.append(X_PLUS_1.on(b))
        circuit.append(QUTRIT_H.on(a))
        return circuit

    def test_second_default_model_classifies_nothing_seen(
        self, monkeypatch
    ):
        classified = self._counting(monkeypatch)
        circuit = self._circuit(0.31415)
        first = QutritCliffordTCostModel().cost(circuit)
        assert classified  # at least the fresh phase gate
        seen = list(classified)
        second = QutritCliffordTCostModel().cost(circuit)
        assert classified == seen
        assert second == first

    def test_other_tolerance_keeps_its_own_verdicts(self, monkeypatch):
        classified = self._counting(monkeypatch)
        # 4.8e-8 of a grid step off the identity phase: Clifford at
        # atol 1e-6 only.
        gate = phase_gate(3, 1, 1e-7)
        assert not QutritCliffordTCostModel().is_clifford(gate)
        count = len(classified)
        assert QutritCliffordTCostModel(atol=1e-6).is_clifford(gate)
        assert len(classified) == count + 1
        assert not QutritCliffordTCostModel().is_clifford(gate)
        assert QutritCliffordTCostModel(atol=1e-6).is_clifford(gate)
        assert len(classified) == count + 1


def test_concurrent_models_share_consistent_verdicts():
    # More threads than cores, switching every microsecond, each with
    # its own model over fresh specs in its own order: every verdict
    # must equal a fresh classification, whichever thread stored it.
    import sys
    import threading

    gates = [phase_gate(3, 1, 2 * np.pi * k / 27 + 1e-4 * (k % 2))
             for k in range(27)]
    expected = [
        QutritCliffordTCostModel()._classify(gate) for gate in gates
    ]
    threads_n = 8
    seen: list = [None] * threads_n
    start = threading.Barrier(threads_n)

    def work(slot):
        # A tolerance no other test uses: every verdict starts unknown.
        model = QutritCliffordTCostModel(atol=1e-9 * (1 + 1e-12))
        order = list(range(slot, len(gates))) + list(range(slot))
        start.wait(timeout=10)
        seen[slot] = {k: model.is_clifford(gates[k]) for k in order}

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    for verdicts in seen:
        assert [verdicts[k] for k in range(len(gates))] == expected
    assert 0 < sum(expected) < len(expected)


class TestResolution:
    def test_default_is_qutrit_clifford_t(self):
        assert (
            resolve_cost_model(None).name
            == QutritCliffordTCostModel().name
        )

    def test_names_resolve(self):
        for name in COST_MODELS:
            model = resolve_cost_model(name)
            assert isinstance(model, CostModel)
            assert model.name == name

    def test_gate_count_model_ignores_clifford_structure(self):
        a, = qutrits(1)
        circuit = Circuit()
        circuit.append(X_PLUS_1.on(a))
        cost = GateCountCostModel().cost(circuit)
        assert cost.non_clifford_gates == 0
        assert cost.total_gates == 1

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            resolve_cost_model("no-such-model")

    def test_a_model_without_price_is_rejected(self):
        class CircuitOnly:
            name = "circuit-only"

            def cost(self, circuit):
                return GateCountCostModel().cost(circuit)

        assert not isinstance(CircuitOnly(), CostModel)
        with pytest.raises(TypeError):
            resolve_cost_model(CircuitOnly())


class TestPricing:
    """``cost(circuit)`` is ``price`` over the circuit's operations and
    depth, for both shipped models."""

    @pytest.mark.parametrize("model", sorted(COST_MODELS))
    def test_cost_is_price_of_the_circuit(self, model):
        from repro.toffoli.registry import construction_circuit

        model = resolve_cost_model(model)
        for name in ("qutrit_tree", "qubit_ancilla_free", "he_tree"):
            circuit = construction_circuit(name, 3)
            priced = model.price(
                list(circuit.all_operations()), circuit.depth
            )
            assert priced == model.cost(circuit), name
            assert priced.total_gates == circuit.num_operations
            assert priced.two_qudit_gates == circuit.two_qudit_gate_count

    def test_price_counts_what_it_is_given(self):
        a, b = qubits(2)
        ops = [T.on(a), CNOT.on(a, b), S.on(b), T_DAG.on(b)]
        cost = QutritCliffordTCostModel().price(iter(ops), depth=7)
        assert cost == CircuitCost(
            depth=7, total_gates=4, two_qudit_gates=1, non_clifford_gates=2
        )
