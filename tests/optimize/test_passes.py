"""Tests for the rewrite passes over barrier-segmented circuits."""

import pytest

from repro.circuits.circuit import Circuit
from repro.gates import CNOT, H, S, S_DAG, T, T_DAG, X, Z
from repro.gates.base import PhasedGate
from repro.gates.qutrit import X01, X_MINUS_1, X_PLUS_1, phase_gate
from repro.optimize import (
    CancelAdjacentInverses,
    CommutationPacking,
    FuseDiagonalGates,
    is_identity_gate,
    is_inverse_pair,
    resolve_passes,
)
from repro.qudits import qubits, qutrits
from repro.verify import assert_equivalent


class TestInversePredicates:
    def test_named_dag_pair(self):
        assert is_inverse_pair(T, T_DAG)
        assert is_inverse_pair(T_DAG, T)
        assert not is_inverse_pair(T, S_DAG)

    def test_self_inverse(self):
        assert is_inverse_pair(H, H)
        assert is_inverse_pair(CNOT, CNOT)

    def test_qutrit_shift_pair(self):
        assert is_inverse_pair(X_PLUS_1, X_MINUS_1)
        assert not is_inverse_pair(X_PLUS_1, X_PLUS_1)

    def test_identity_gate_detection(self):
        assert is_identity_gate(PhasedGate([1, 1, 1], (3,), "noop"))
        assert not is_identity_gate(PhasedGate([1, -1], (2,), "Z'"))
        assert not is_identity_gate(X)


class TestCancelAdjacentInverses:
    def test_adjacent_pair_cancels(self):
        a, = qubits(1)
        circuit = Circuit()
        circuit.append(T.on(a))
        circuit.append(T_DAG.on(a))
        optimized, stats = CancelAdjacentInverses().run(circuit)
        assert optimized.num_operations == 0
        assert stats.applications == 1
        assert stats.gates_removed == 2

    def test_cancellation_through_commuting_spacer(self):
        a, b = qubits(2)
        circuit = Circuit()
        circuit.append(T.on(a))
        circuit.append(H.on(b))  # disjoint spacer
        circuit.append(T_DAG.on(a))
        optimized, stats = CancelAdjacentInverses().run(circuit)
        assert optimized.num_operations == 1
        assert [op.gate.name for op in optimized.all_operations()] == ["H"]

    def test_blocker_prevents_cancellation(self):
        a, = qubits(1)
        circuit = Circuit()
        circuit.append(T.on(a))
        circuit.append(H.on(a))  # blocks the walk
        circuit.append(T_DAG.on(a))
        optimized, stats = CancelAdjacentInverses().run(circuit)
        assert optimized is circuit
        assert stats.applications == 0

    def test_barrier_blocks_cancellation(self):
        a, = qubits(1)
        circuit = Circuit()
        circuit.append(T.on(a))
        circuit.barrier()
        circuit.append(T_DAG.on(a))
        optimized, _ = CancelAdjacentInverses().run(circuit)
        assert optimized is circuit

    def test_wire_order_must_match(self):
        a, b = qubits(2)
        circuit = Circuit()
        circuit.append(CNOT.on(a, b))
        circuit.append(CNOT.on(b, a))  # same wires, different roles
        optimized, _ = CancelAdjacentInverses().run(circuit)
        assert optimized is circuit

    def test_cascade_cancels_nested_pairs(self):
        a, = qutrits(1)
        circuit = Circuit()
        circuit.append(X_PLUS_1.on(a))
        circuit.append(X01.on(a))
        circuit.append(X01.on(a))
        circuit.append(X_MINUS_1.on(a))
        optimized, stats = CancelAdjacentInverses().run(circuit)
        assert optimized.num_operations == 0
        assert stats.applications == 2


class TestFuseDiagonalGates:
    def test_adjacent_phase_gates_fuse(self):
        a, = qutrits(1)
        circuit = Circuit()
        circuit.append(phase_gate(3, 1, 0.25).on(a))
        circuit.append(phase_gate(3, 2, 0.5).on(a))
        optimized, stats = FuseDiagonalGates().run(circuit)
        assert optimized.num_operations == 1
        assert stats.gates_fused == 1
        assert_equivalent(optimized, circuit)

    def test_fusing_to_identity_drops_both(self):
        a, = qubits(1)
        circuit = Circuit()
        circuit.append(S.on(a))
        circuit.append(S_DAG.on(a))
        optimized, _ = FuseDiagonalGates().run(circuit)
        assert optimized.num_operations == 0

    def test_non_diagonal_partner_is_skipped(self):
        a, = qubits(1)
        circuit = Circuit()
        circuit.append(H.on(a))
        circuit.append(S.on(a))
        optimized, stats = FuseDiagonalGates().run(circuit)
        assert optimized is circuit
        assert stats.applications == 0

    def test_fuses_across_swapped_wire_order(self):
        # Diagonal two-qudit gates on the same wire *set* fuse even if
        # the operations list the wires differently.
        a, b = qubits(2)
        cz_phases = [1, 1, 1, -1]
        circuit = Circuit()
        circuit.append(PhasedGate(cz_phases, (2, 2), "CZ'").on(a, b))
        circuit.append(PhasedGate(cz_phases, (2, 2), "CZ'").on(b, a))
        optimized, stats = FuseDiagonalGates().run(circuit)
        assert stats.applications == 1
        assert_equivalent(optimized, circuit)

    def test_fused_result_is_equivalent(self):
        a, = qubits(1)
        circuit = Circuit()
        circuit.append(T.on(a))
        circuit.append(S.on(a))
        circuit.append(Z.on(a))
        optimized, stats = FuseDiagonalGates().run(circuit)
        assert optimized.num_operations == 1
        assert_equivalent(optimized, circuit)


class TestCommutationPacking:
    def test_commuting_tail_packs_left(self):
        a, b = qubits(2)
        circuit = Circuit()
        circuit.append(H.on(a))
        circuit.append(H.on(a))
        circuit.append(T.on(b))  # commutes with everything on wire a
        assert circuit.depth == 2
        optimized, stats = CommutationPacking().run(circuit)
        assert stats.applications >= 1
        assert optimized.depth <= circuit.depth
        assert_equivalent(optimized, circuit)

    def test_blocked_circuit_is_untouched(self):
        a, = qubits(1)
        circuit = Circuit()
        circuit.append(H.on(a))
        circuit.append(T.on(a))
        optimized, stats = CommutationPacking().run(circuit)
        assert stats.applications == 0
        assert optimized is circuit

    def test_z_slides_before_control(self):
        a, b = qubits(2)
        circuit = Circuit()
        circuit.append(CNOT.on(a, b))
        circuit.append(Z.on(a))  # commutes with the control
        optimized, stats = CommutationPacking().run(circuit)
        assert stats.applications == 1
        ops = list(optimized.all_operations())
        assert ops[0].gate.name == "Z"
        assert_equivalent(optimized, circuit)


class TestResolvePasses:
    def test_default_order(self):
        assert [p.name for p in resolve_passes(None)] == [
            "cancel-inverses", "fuse-phases", "pack-commuting",
        ]

    def test_names_resolve(self):
        passes = resolve_passes(["fuse-phases"])
        assert len(passes) == 1
        assert passes[0].name == "fuse-phases"

    def test_instances_pass_through(self):
        instance = CancelAdjacentInverses(window=7)
        assert resolve_passes([instance])[0] is instance

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            resolve_passes(["no-such-pass"])
