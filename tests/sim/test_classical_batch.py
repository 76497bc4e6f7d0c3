"""Batched classical permutation engine: parity, round-trips, batching."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import NotClassicalError, SchedulingError
from repro.gates.base import Gate
from repro.gates.controlled import ControlledGate
from repro.gates.qubit import CNOT, H, X
from repro.gates.qutrit import X01, X_PLUS_1
from repro.qudits import qubits, qutrits
from repro.sim import classical as classical_module
from repro.sim.classical import ClassicalSimulator
from repro.toffoli.registry import build_toffoli

#: Constructions whose builders can emit undecomposed permutation
#: circuits (the classical engines' whole domain).
PERMUTATION_CONSTRUCTIONS = [
    "qutrit_tree",
    "qubit_one_dirty",
    "he_tree",
]


@pytest.fixture
def batched() -> ClassicalSimulator:
    return ClassicalSimulator()


def _looped_truth_table(circuit, wires, input_levels=None):
    """Reference truth table through the looped ``classical_map`` walk."""
    from itertools import product

    choices = []
    for wire in wires:
        if input_levels is not None and wire in input_levels:
            choices.append(tuple(input_levels[wire]))
        else:
            choices.append(tuple(wire.levels))
    table = {}
    for values in product(*choices):
        out = circuit.classical_map(dict(zip(wires, values)))
        table[values] = tuple(out[w] for w in wires)
    return table


class TestRunArray:
    def test_matches_looped_on_simple_chain(self, batched):
        a, b = qubits(2)
        circuit = Circuit([X.on(a), CNOT.on(a, b)])
        inputs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        outputs = batched.run_array(circuit, [a, b], inputs)
        for row_in, row_out in zip(inputs, outputs):
            expect = circuit.classical_map(dict(zip([a, b], row_in)))
            assert tuple(row_out) == (expect[a], expect[b])

    def test_qutrit_elevation_chain(self, batched):
        a, b = qutrits(2)
        circuit = Circuit(
            [
                ControlledGate(X_PLUS_1, (3,), (1,)).on(a, b),
                ControlledGate(X01, (3,), (2,)).on(b, a),
            ]
        )
        out = batched.run_array(circuit, [a, b], np.array([[1, 1]]))
        assert out.tolist() == [[0, 2]]

    def test_results_independent_of_chunking(self, batched, monkeypatch):
        result = build_toffoli("qutrit_tree", 4, decompose=False)
        wires = result.all_wires
        inputs = batched.input_space(wires, {w: (0, 1) for w in wires})
        full = batched.run_array(result.circuit, wires, inputs)
        for chunk in (1, 3, 7, len(inputs)):
            monkeypatch.setattr(classical_module, "_AUTO_BATCH_ROWS", chunk)
            chunked = batched.run_array(result.circuit, wires, inputs)
            assert np.array_equal(full, chunked)

    def test_non_classical_gate_raises(self, batched):
        a = qubits(1)[0]
        with pytest.raises(NotClassicalError):
            batched.run_array(Circuit([H.on(a)]), [a], np.array([[0]]))

    def test_missing_wire_raises_scheduling_error(self, batched):
        a, b = qubits(2)
        circuit = Circuit([CNOT.on(a, b)])
        with pytest.raises(SchedulingError):
            batched.run_array(circuit, [a], np.array([[0]]))

    def test_out_of_range_input_rejected(self, batched):
        a = qubits(1)[0]
        circuit = Circuit([X.on(a)])
        with pytest.raises(ValueError, match="out of range"):
            batched.run_array(circuit, [a], np.array([[2]]))

    def test_bad_shape_rejected(self, batched):
        a = qubits(1)[0]
        with pytest.raises(ValueError, match="shape"):
            batched.run_array(Circuit([X.on(a)]), [a], np.array([0, 1]))


class TestRunValuesScalarPath:
    """run_values takes a scalar walk over the cached lowering; it must
    agree with the array path on results and on every error contract."""

    def test_matches_run_array_rows(self, batched):
        result = build_toffoli("qutrit_tree", 4, decompose=False)
        wires = result.all_wires
        inputs = batched.input_space(wires, {w: (0, 1) for w in wires})
        outputs = batched.run_array(result.circuit, wires, inputs)
        for row_in, row_out in zip(inputs, outputs):
            assert batched.run_values(
                result.circuit, wires, row_in.tolist()
            ) == tuple(row_out)

    def test_repeated_calls_hit_the_lowering_cache(self, batched):
        from repro.sim.classical import _lowered_operations

        a, b = qubits(2)
        circuit = Circuit([X.on(a), CNOT.on(a, b)])
        _lowered_operations.cache_clear()
        batched.run_values(circuit, [a, b], (1, 0))
        batched.run_values(circuit, [a, b], (0, 1))
        info = _lowered_operations.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_scalar_path_error_contracts(self, batched):
        a, b = qubits(2)
        circuit = Circuit([CNOT.on(a, b)])
        with pytest.raises(ValueError, match="out of range"):
            batched.run_values(circuit, [a, b], (2, 0))
        with pytest.raises(ValueError, match="shape"):
            batched.run_values(circuit, [a, b], (0,))
        with pytest.raises(SchedulingError):
            batched.run_values(circuit, [a], (0,))
        with pytest.raises(NotClassicalError):
            batched.run_values(Circuit([H.on(a)]), [a], (0,))


class TestTruthTableParity:
    @pytest.mark.parametrize("name", PERMUTATION_CONSTRUCTIONS)
    def test_matches_looped_for_constructions(self, batched, name):
        result = build_toffoli(name, 3, decompose=False)
        wires = result.all_wires
        levels = {w: (0, 1) for w in wires}
        assert batched.truth_table(
            result.circuit, wires, levels
        ) == _looped_truth_table(result.circuit, wires, levels)

    def test_wang_chain_parity(self, batched):
        # wang_chain emits permutation gates directly (no decompose knob).
        result = build_toffoli("wang_chain", 3)
        wires = result.all_wires
        levels = {w: (0, 1) for w in wires}
        assert batched.truth_table(
            result.circuit, wires, levels
        ) == _looped_truth_table(result.circuit, wires, levels)

    def test_full_levels_by_default(self, batched):
        a = qutrits(1)[0]
        circuit = Circuit([X_PLUS_1.on(a)])
        table = batched.truth_table(circuit, [a])
        assert table == {(0,): (1,), (1,): (2,), (2,): (0,)}

    def test_dirty_ancilla_patterns_covered(self, batched):
        result = build_toffoli("qubit_one_dirty", 3, decompose=False)
        wires = result.all_wires
        table = batched.truth_table(
            result.circuit, wires, {w: (0, 1) for w in wires}
        )
        n = result.spec.num_controls
        borrow_col = wires.index(result.borrowed_ancilla[0])
        for values, out in table.items():
            # Borrowed wire restored for every dirty pattern; target
            # flipped exactly when all controls are active.
            assert out[borrow_col] == values[borrow_col]
            active = all(v == 1 for v in values[:n])
            assert out[n] == (values[n] ^ 1 if active else values[n])


class TestPermutationVector:
    def test_round_trips_against_truth_table(self, batched):
        result = build_toffoli("qutrit_tree", 3, decompose=False)
        wires = result.all_wires
        dims = [w.dimension for w in wires]
        vector = batched.permutation_vector(result.circuit, wires)
        table = batched.truth_table(result.circuit, wires)
        weights = np.ones(len(dims), dtype=np.int64)
        for k in range(len(dims) - 2, -1, -1):
            weights[k] = weights[k + 1] * dims[k + 1]
        assert len(vector) == int(np.prod(dims))
        for values, out in table.items():
            index = int(np.asarray(values) @ weights)
            assert vector[index] == int(np.asarray(out) @ weights)

    def test_is_a_permutation_of_the_joint_space(self, batched):
        result = build_toffoli("wang_chain", 4)
        vector = batched.permutation_vector(result.circuit)
        assert sorted(vector.tolist()) == list(range(len(vector)))

    def test_composes_like_circuits(self, batched):
        a, b = qubits(2)
        first = Circuit([X.on(a)])
        second = Circuit([CNOT.on(a, b)])
        v1 = batched.permutation_vector(first, [a, b])
        v2 = batched.permutation_vector(second, [a, b])
        joint = batched.permutation_vector(first + second, [a, b])
        assert np.array_equal(joint, v2[v1])

    def test_empty_circuit_identity(self, batched):
        vector = batched.permutation_vector(Circuit())
        assert vector.tolist() == [0]


class _ZeroFixingNonClassicalGate(Gate):
    """Regression gate: acts classically on |0> but on nothing else.

    ``H`` fixes no basis state, so tack the classical-looking behaviour
    on explicitly: ``classical_action`` answers for the all-zeros input
    (the old probe) and only the whole-domain lowering exposes that the
    unitary is not a permutation.
    """

    @property
    def dims(self):
        return (2,)

    @property
    def name(self):
        return "zero-fixing-H"

    def unitary(self):
        return H.unitary()

    def classical_action(self, values):
        if tuple(values) == (0,):
            return (0,)
        raise NotClassicalError("only classical at zero")


class TestIsClassicalCircuit:
    def test_accepts_permutation_circuit(self, batched):
        a, b = qubits(2)
        assert batched.is_classical_circuit(Circuit([CNOT.on(a, b)]))

    def test_rejects_h(self, batched):
        a = qubits(1)[0]
        assert not batched.is_classical_circuit(Circuit([H.on(a)]))

    def test_rejects_gate_classical_only_at_zero(self, batched):
        # The pre-PR-4 check probed gates with the all-zeros input via
        # classical_action; this gate answers that probe but is not a
        # permutation.  Classicality must come from the table lowering.
        a = qubits(1)[0]
        gate = _ZeroFixingNonClassicalGate()
        assert gate.classical_action((0,)) == (0,)  # fools the old probe
        assert not batched.is_classical_circuit(Circuit([gate.on(a)]))


class TestChunking:
    """Rows advance in chunks of at most ``_AUTO_BATCH_ROWS``."""

    CAP = classical_module._AUTO_BATCH_ROWS

    @pytest.mark.parametrize("cap, rows, chunks", [
        (CAP, 1000, [1000]),
        (CAP, CAP + 5, [CAP, 5]),
        (3, 7, [3, 3, 1]),
        (CAP, 0, []),
    ])
    def test_chunks(self, monkeypatch, cap, rows, chunks):
        # Record the rows each table gather sees.
        seen = []
        lower = classical_module._lowered_operations

        class Table:
            def __init__(self, table):
                self.table = table

            def __getitem__(self, indices):
                seen.append(len(indices))
                return self.table[indices]

        def recording(circuit, wires):
            return tuple(
                (cols, SimpleNamespace(weights=kernel.weights,
                                       dims=kernel.dims,
                                       table=Table(kernel.table)))
                for cols, kernel in lower(circuit, wires)
            )

        monkeypatch.setattr(classical_module, "_lowered_operations",
                            recording)
        monkeypatch.setattr(classical_module, "_AUTO_BATCH_ROWS", cap)
        a = qubits(1)[0]
        ClassicalSimulator().run_array(
            Circuit([X.on(a)]), [a], np.zeros((rows, 1), dtype=np.int64)
        )
        assert seen == chunks
