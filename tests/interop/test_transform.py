"""Lift/lower gate transforms and the LiftToQutrits/LowerToQubits passes."""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import InteropError
from repro.execution import execute
from repro.gates.controlled import ControlledGate
from repro.gates.embedded import EmbeddedGate
from repro.gates.qubit import CNOT, H, S, T, TOFFOLI, X
from repro.gates.qutrit import X01, X_PLUS_1
from repro.interop import (
    LiftToQutrits,
    LowerToQubits,
    lift_circuit,
    lift_gate,
    lower_circuit,
    lower_gate,
)
from repro.linalg import allclose_up_to_global_phase
from repro.qudits import Qudit, qubits, qutrits


def _bell_pair():
    a, b = qubits(2)
    return Circuit([H.on(a), CNOT.on(a, b)])


class TestLiftGate:
    def test_plain_gate_wraps_in_embedding(self):
        lifted = lift_gate(H, (3,))
        assert isinstance(lifted, EmbeddedGate)
        assert lifted.sub_gate is H

    def test_controlled_gate_lifts_through_structure(self):
        lifted = lift_gate(CNOT, (3, 3))
        assert isinstance(lifted, ControlledGate)
        assert lifted.control_values == CNOT.control_values
        assert lifted.dims == (3, 3)

    def test_toffoli_stays_multi_controlled(self):
        lifted = lift_gate(TOFFOLI, (3, 3, 3))
        assert isinstance(lifted, ControlledGate)
        assert lifted.num_controls == 2

    def test_lift_to_own_dims_is_identity(self):
        assert lift_gate(H, (2,)) is H

    def test_embedded_gate_relifts_from_sub_gate(self):
        lifted = lift_gate(EmbeddedGate(H, (3,)), (4,))
        assert isinstance(lifted, EmbeddedGate)
        assert lifted.sub_gate is H
        assert lifted.dims == (4,)

    def test_shrinking_lift_rejected(self):
        with pytest.raises(InteropError, match="cannot lift"):
            lift_gate(X01, (2,))

    def test_lifted_cnot_stays_a_permutation(self):
        lifted = lift_gate(CNOT, (3, 3))
        assert lifted.is_classical
        assert lifted.classical_action((1, 0)) == (1, 1)
        assert lifted.classical_action((2, 1)) == (2, 1)  # |2> untouched

    def test_lifted_x_acts_as_x01(self):
        assert allclose_up_to_global_phase(
            lift_gate(X, (3,)).unitary(), X01.unitary()
        )


class TestLowerGate:
    def test_lower_unwraps_embedding(self):
        assert lower_gate(EmbeddedGate(H, (3,)), (2,)) is H

    def test_lower_inverts_lift(self):
        for gate, dims in [(H, (3,)), (CNOT, (3, 3)), (S, (4,))]:
            lifted = lift_gate(gate, dims)
            lowered = lower_gate(lifted, gate.dims)
            assert np.allclose(lowered.unitary(), gate.unitary())

    def test_control_on_removed_level_drops(self):
        gate = ControlledGate(X01, (3,), (2,))
        assert lower_gate(gate, (2, 2)) is None

    def test_leaking_gate_rejected(self):
        # X+1 maps |1> -> |2>: the qubit subspace is not invariant.
        with pytest.raises(InteropError, match="not transient"):
            lower_gate(X_PLUS_1, (2,))

    def test_growing_lower_rejected(self):
        with pytest.raises(InteropError, match="cannot lower"):
            lower_gate(H, (3,))


class TestLiftToQutrits:
    def test_wires_and_metadata(self):
        lift = LiftToQutrits()
        lifted = lift.transform(_bell_pair())
        dims = {w.dimension for w in lifted.all_qudits()}
        assert dims == {3}
        assert lift.last_metadata == {
            "lifted_wires": 2,
            "lifted_gates": 2,
            "target_dimension": 3,
        }

    def test_custom_dimension(self):
        lifted = lift_circuit(_bell_pair(), dim=4)
        assert {w.dimension for w in lifted.all_qudits()} == {4}

    def test_dim_below_three_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            LiftToQutrits(2)

    def test_index_collision_raises_typed_error(self):
        circuit = Circuit(
            [H.on(Qudit(0, 2)), X01.on(Qudit(0, 3))]
        )
        with pytest.raises(InteropError, match="already exists"):
            lift_circuit(circuit)

    def test_bell_statistics_kept_on_the_binary_subspace(self):
        bell = _bell_pair()
        original = execute(bell, backend="statevector")
        lifted = execute(lift_circuit(bell), backend="statevector")
        for outcome in [(0, 0), (1, 1)]:
            assert np.isclose(
                lifted.probability_of(outcome),
                original.probability_of(outcome),
                atol=1e-9,
            )
        assert np.isclose(lifted.probability_of((2, 2)), 0.0, atol=1e-12)

    def test_classical_gates_stay_classical(self):
        a, b = qubits(2)
        lifted = lift_circuit(Circuit([X.on(a), CNOT.on(a, b)]))
        assert execute(lifted, backend="classical").values == (1, 1)

    def test_mixed_circuit_lifts_only_qubit_wires(self):
        q2 = Qudit(0, 2)
        q3 = Qudit(1, 3)
        circuit = Circuit([H.on(q2), X01.on(q3)])
        lifted = lift_circuit(circuit)
        assert {w.dimension for w in lifted.all_qudits()} == {3}
        assert lifted.num_operations == 2


class TestLowerToQubits:
    def test_round_trip_restores_circuit(self):
        circuit = _bell_pair()
        assert lower_circuit(lift_circuit(circuit)) == circuit

    def test_round_trip_with_multi_control(self):
        a, b, c = qubits(3)
        circuit = Circuit(
            [H.on(a), TOFFOLI.on(a, b, c), T.on(c), CNOT.on(b, c)]
        )
        assert lower_circuit(lift_circuit(circuit)) == circuit

    def test_verify_records_oracle(self):
        lower = LowerToQubits(verify=True)
        lower.transform(lift_circuit(_bell_pair()))
        assert lower.last_metadata["verified"] in (
            "classical", "statevector"
        )
        assert lower.last_metadata["lowered_wires"] == 2

    def test_drops_unfireable_control(self):
        a, b = qutrits(2)
        lower = LowerToQubits()
        lowered = lower.transform(
            Circuit(
                [
                    EmbeddedGate(X, (3,)).on(a),
                    ControlledGate(X01, (3,), (2,)).on(a, b),
                ]
            )
        )
        assert lowered.num_operations == 1
        assert lower.last_metadata["dropped"] == 1

    def test_native_leakage_rejected(self):
        (a,) = qutrits(1)
        with pytest.raises(InteropError, match="not transient"):
            lower_circuit(Circuit([X_PLUS_1.on(a)]))
