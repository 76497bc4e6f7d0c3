"""Round-trip and structural-identity tests for the circuit IR."""

import pytest

from repro.circuits import Circuit, GateOperation, Moment
from repro.exceptions import (
    DimensionMismatchError,
    SchedulingError,
    SerializationError,
)
from repro.gates import CNOT, H, X, X_PLUS_1, controlled_power_of_x
from repro.qudits import Qudit, qubits, qutrits
from repro.toffoli.registry import CONSTRUCTIONS, build_toffoli


def _sample_circuit() -> Circuit:
    a, b = qubits(2)
    t = Qudit(2, 3)
    circuit = Circuit([H.on(a), CNOT.on(a, b)])
    circuit.barrier()
    circuit.append([X_PLUS_1.on(t), controlled_power_of_x(0.5).on(a, b)])
    return circuit


class TestOperationSerialization:
    def test_round_trip(self):
        a, b = qubits(2)
        op = CNOT.on(a, b)
        rebuilt = GateOperation.from_dict(op.to_dict())
        assert rebuilt == op
        assert hash(rebuilt) == hash(op)

    def test_wires_carry_dimensions(self):
        t = Qudit(4, 3)
        rebuilt = GateOperation.from_dict(X_PLUS_1.on(t).to_dict())
        assert rebuilt.qudits == (t,)
        assert rebuilt.qudits[0].dimension == 3


class TestMomentSerialization:
    def test_round_trip(self):
        a, b, c = qubits(3)
        moment = Moment([CNOT.on(a, b), X.on(c)])
        rebuilt = Moment.from_dict(moment.to_dict())
        assert rebuilt == moment
        assert hash(rebuilt) == hash(moment)

    def test_equality_is_order_insensitive(self):
        a, b = qubits(2)
        assert Moment([X.on(a), H.on(b)]) == Moment([H.on(b), X.on(a)])

    def test_empty_moment_round_trips(self):
        assert Moment.from_dict(Moment().to_dict()) == Moment()


class TestCircuitSerialization:
    def test_round_trip_preserves_structure(self):
        circuit = _sample_circuit()
        rebuilt = Circuit.from_json(circuit.to_json())
        assert rebuilt == circuit
        assert hash(rebuilt) == hash(circuit)
        assert rebuilt.depth == circuit.depth
        assert rebuilt.moments == circuit.moments

    def test_round_trip_preserves_barriers(self):
        circuit = _sample_circuit()
        rebuilt = Circuit.from_json(circuit.to_json())
        assert rebuilt.barrier_floors == circuit.barrier_floors
        # Continued building respects the restored floors the same way.
        a = qubits(1)[0]
        assert Circuit.from_json(circuit.to_json()).append(
            [X.on(a)]
        ).depth == circuit.append([X.on(a)]).depth

    def test_pretty_json_round_trips(self):
        circuit = _sample_circuit()
        assert Circuit.from_json(circuit.to_json(indent=2)) == circuit

    def test_version_checked(self):
        with pytest.raises(SerializationError, match="version"):
            Circuit.from_dict({"version": 1, "moments": []})

    def test_bad_json_rejected(self):
        with pytest.raises(SerializationError, match="invalid"):
            Circuit.from_json("not json {")
        with pytest.raises(SerializationError, match="object"):
            Circuit.from_json("[1, 2]")

    def test_empty_circuit_round_trips(self):
        assert Circuit.from_json(Circuit().to_json()) == Circuit()


class TestMalformedCircuitData:
    """Outside data never reaches the circuit unchecked: every defect
    raises SerializationError chained from its cause."""

    @staticmethod
    def _rejects(data, cause):
        with pytest.raises(SerializationError, match="malformed") as info:
            Circuit.from_dict(data)
        if cause is not None:
            assert isinstance(info.value.__cause__, cause)

    def test_two_operations_on_one_wire_in_a_moment(self):
        data = _sample_circuit().to_dict()
        h_op = data["moments"][0]["operations"][0]
        data["moments"][0]["operations"].append(h_op)
        self._rejects(data, SchedulingError)

    def test_wire_dimension_differs_from_gate(self):
        data = _sample_circuit().to_dict()
        data["moments"][0]["operations"][0]["wires"] = [[0, 3]]
        self._rejects(data, DimensionMismatchError)

    @pytest.mark.parametrize("value", ["2", "x", 1.5, None, True])
    def test_non_integer_barrier_entry(self, value):
        data = _sample_circuit().to_dict()
        data["barriers"] = [value]
        self._rejects(data, TypeError)

    @pytest.mark.parametrize("value", ["2", "x", 1.5, None, False])
    def test_non_integer_barrier_floor(self, value):
        data = _sample_circuit().to_dict()
        data["barrier_floor"] = value
        self._rejects(data, TypeError)

    def test_barrier_state_beyond_depth(self):
        data = Circuit([H.on(qubits(1)[0])] * 2).to_dict()
        assert len(data["moments"]) == 2
        data["barriers"], data["barrier_floor"] = [5], 7
        self._rejects(data, None)

    @pytest.mark.parametrize(
        "barriers", [[0], [2, 1], [1, 1], [-1], [1, 4]]
    )
    def test_barrier_history_not_strictly_increasing_in_range(
        self, barriers
    ):
        data = _sample_circuit().to_dict()
        data["barriers"] = barriers
        self._rejects(data, None)

    @pytest.mark.parametrize("floor", [-1, 4])
    def test_barrier_floor_outside_depth(self, floor):
        data = _sample_circuit().to_dict()
        data["barrier_floor"] = floor
        self._rejects(data, None)

    def test_full_range_barrier_state_accepted(self):
        data = _sample_circuit().to_dict()
        data["barriers"], data["barrier_floor"] = [1, 3], 3
        circuit = Circuit.from_dict(data)
        assert circuit.barrier_floors == (1, 3)
        assert circuit.append(H.on(qubits(1)[0])).depth == 4


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
class TestConstructionRoundTrip:
    def test_lowered_form(self, name):
        circuit = build_toffoli(name, 4).circuit
        rebuilt = Circuit.from_json(circuit.to_json())
        assert rebuilt == circuit
        assert hash(rebuilt) == hash(circuit)

    def test_permutation_form(self, name):
        try:
            circuit = build_toffoli(name, 4, decompose=False).circuit
        except TypeError:
            circuit = build_toffoli(name, 4).circuit
        assert Circuit.from_json(circuit.to_json()) == circuit


class TestCircuitIdentity:
    def test_equal_builds_hash_equal(self):
        a = build_toffoli("qutrit_tree", 5).circuit
        b = build_toffoli("qutrit_tree", 5).circuit
        assert a == b
        assert hash(a) == hash(b)

    def test_different_sizes_differ(self):
        assert (
            build_toffoli("qutrit_tree", 5).circuit
            != build_toffoli("qutrit_tree", 6).circuit
        )

    def test_permuted_wires_differ(self):
        a, b = qutrits(2)
        # Single-moment circuits with the same ops on the same wires are
        # equal regardless of insertion order...
        assert Circuit([X_PLUS_1.on(a), X_PLUS_1.on(b)]) == Circuit(
            [X_PLUS_1.on(b), X_PLUS_1.on(a)]
        )
        # ...but binding a two-wire gate to permuted wires is different.
        c1 = Circuit([CNOT.on(*qubits(2))])
        c2 = Circuit([CNOT.on(*reversed(qubits(2)))])
        assert c1 != c2
        assert hash(c1) != hash(c2)

    def test_gate_content_matters(self):
        a = qubits(1)[0]
        assert Circuit([X.on(a)]) != Circuit([H.on(a)])
