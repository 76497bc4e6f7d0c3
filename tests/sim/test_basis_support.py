"""The basis-input engine: a basis input walks its support.

``StateVectorSimulator.run_basis`` and ``run(wires=...)`` start on
``ClassicalSimulator.run_support`` once the register is wide enough and
hand over to the register's ``GatePlan`` once the support grows.  The
dense-kernel oracle (``permutation_fast_path=False``) is the reference.
"""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import DimensionMismatchError, NotClassicalError
from repro.execution.backends import ClassicalBackend, StateVectorBackend
from repro.gates.controlled import ControlledGate
from repro.gates.matrix import MatrixGate
from repro.gates.qubit import CNOT, H, T, X, Y
from repro.gates.qutrit import QUTRIT_H, X_PLUS_1, Z3
from repro.linalg import random_unitary
from repro.qudits import qubits, qutrits
from repro.sim import classical, statevector
from repro.sim.classical import ClassicalSimulator, Support
from repro.sim.kernels import (
    clear_kernel_caches,
    column_kernel,
    kernel_cache_stats,
)
from repro.sim.measurement import sample_counts
from repro.sim.state import StateVector
from repro.sim.statevector import StateVectorSimulator

ORACLE = StateVectorSimulator(permutation_fast_path=False)


#: A qutrit gate with one nonzero per column that is neither a
#: permutation nor diagonal.
SHIFTED_CLOCK = MatrixGate(X_PLUS_1.unitary() @ Z3.unitary(), (3,), "X+1.Z3")


def _gate_on(kind, rng, wires):
    """One gate of ``kind`` on a random target, under a random control
    half of the time (always for ``controlled``)."""
    target, control = (wires[k] for k in rng.permutation(len(wires))[:2])
    qubit = target.dimension == 2
    gate = {
        "permutation": X if qubit else X_PLUS_1,
        "diagonal": T if qubit else Z3,
        "monomial": Y if qubit else SHIFTED_CLOCK,
    }.get(kind, H if qubit else QUTRIT_H)
    if kind == "dense" and rng.random() < 0.5:
        dims = (control.dimension, target.dimension)
        matrix = random_unitary(dims[0] * dims[1], rng)
        return MatrixGate(matrix, dims, "U").on(control, target)
    if kind == "controlled" or (kind != "dense" and rng.random() < 0.5):
        value = int(rng.integers(control.dimension))
        gate = ControlledGate(gate, (control.dimension,), (value,))
        return gate.on(control, target)
    return gate.on(target)


KINDS = ("permutation", "permutation", "diagonal", "controlled",
         "monomial", "dense")


def _mixed_circuit(seed):
    """A seeded random circuit on 2-3 qubits and 2 qutrits, and a random
    basis input for it."""
    rng = np.random.default_rng(seed)
    wires = qubits(int(rng.integers(2, 4))) + qutrits(2, start=10)
    ops = [
        _gate_on(KINDS[rng.integers(len(KINDS))], rng, wires)
        for _ in range(int(rng.integers(6, 16)))
    ]
    values = [int(rng.integers(w.dimension)) for w in wires]
    return Circuit(ops), wires, values


@pytest.fixture
def walk_everything(monkeypatch):
    """Every register takes the walk and walks to the end unless a test
    lowers the fraction; returns the moments each run handed over at
    (the planner's ``start``)."""
    monkeypatch.setattr(statevector, "_SUPPORT_MIN_AMPLITUDES", 1)
    monkeypatch.setattr(statevector, "_SUPPORT_MAX_FRACTION", 2.0)
    starts = []
    steps = statevector.circuit_steps

    def recording(circuit, wires, dtype=np.complex128, start=0):
        starts.append(start)
        return steps(circuit, wires, dtype, start)

    monkeypatch.setattr(statevector, "circuit_steps", recording)
    return starts


class TestParityWithTheDenseOracle:
    @pytest.mark.parametrize("fraction", [0.1, 0.3, 2.0])
    def test_random_mixed_circuits(
        self, monkeypatch, walk_everything, fraction
    ):
        monkeypatch.setattr(statevector, "_SUPPORT_MAX_FRACTION", fraction)
        simulator = StateVectorSimulator()
        handed_over = 0
        for seed in range(40):
            circuit, wires, values = _mixed_circuit(seed)
            walk_everything.clear()
            final = simulator.run_basis(circuit, wires, values)
            oracle = ORACLE.run_basis(circuit, wires, values)
            assert np.abs(final.vector - oracle.vector).max() <= 1e-12
            assert final.wires == oracle.wires
            if walk_everything:
                (start,) = walk_everything
                assert 0 < start < circuit.depth
                handed_over += 1
        if fraction < 1:
            # Some runs moved into the register partway, some did not.
            assert 0 < handed_over < 40
        else:
            assert handed_over == 0

    def test_every_gate_kind_is_walked(self, walk_everything):
        a, b = qubits(2)
        t, u = qutrits(2, start=5)
        circuit = Circuit([
            H.on(a), CNOT.on(a, b), T.on(b), Y.on(a),
            ControlledGate(QUTRIT_H, (2,)).on(b, t),
            ControlledGate(X_PLUS_1, (3,), (2,)).on(t, u),
            Z3.on(u), QUTRIT_H.on(t),
        ])
        values = (1, 0, 2, 1)
        final = StateVectorSimulator().evolve_basis(
            circuit, [a, b, t, u], values
        )
        assert isinstance(final, Support)
        assert np.all(np.diff(final.index) > 0)
        assert np.all(final.amplitudes != 0)
        oracle = ORACLE.run_basis(circuit, [a, b, t, u], values)
        assert np.abs(
            final.to_state().vector - oracle.vector
        ).max() <= 1e-12

    def test_run_from_zero_over_given_wires(self, walk_everything):
        a, b, c = qubits(3)
        circuit = Circuit([H.on(a), CNOT.on(a, b)])
        state = StateVectorSimulator().run(circuit, wires=[a, b, c])
        assert state.wires == [a, b, c]
        assert np.isclose(state.probability_of((1, 1, 0)), 0.5)
        assert np.isclose(state.probability_of((0, 0, 0)), 0.5)

    def test_forced_dtype_is_kept(self, walk_everything):
        a, b = qutrits(2)
        circuit = Circuit([QUTRIT_H.on(a), ControlledGate(
            X_PLUS_1, (3,)).on(a, b)])
        state = StateVectorSimulator(dtype=np.complex64).run_basis(
            circuit, [a, b], (0, 0)
        )
        assert state.dtype == np.complex64
        oracle = ORACLE.run_basis(circuit, [a, b], (0, 0))
        assert np.abs(state.vector - oracle.vector).max() <= 1e-6

    def test_dense_oracle_never_walks(self, monkeypatch, walk_everything):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle walked")

        monkeypatch.setattr(ClassicalSimulator, "run_support", refuse)
        circuit, wires, values = _mixed_circuit(3)
        ORACLE.run_basis(circuit, wires, values)
        ORACLE.run(circuit, wires=wires)


def _lowered_tree(num_controls):
    from repro.execution.pipeline_spec import PipelineSpec
    from repro.toffoli.registry import build_toffoli

    built = build_toffoli("qutrit_tree", num_controls)
    lowered = PipelineSpec.from_name("lowering").build().compile(
        built.circuit
    ).circuit
    return lowered, list(built.all_wires)


class TestShotsFromTheSupport:
    def test_superposed_support_draws_the_dense_counts(
        self, walk_everything
    ):
        # Random mixed circuits spread the shots over many outcomes, so
        # every draw is searched in the support's cumulative sums.
        simulator = StateVectorSimulator()
        spread = 0
        for seed in range(20):
            circuit, wires, values = _mixed_circuit(seed)
            final = simulator.evolve_basis(circuit, wires, values)
            assert isinstance(final, Support)
            oracle = ORACLE.run_basis(circuit, wires, values)
            for measured in (None, wires[::-2]):
                drawn = sample_counts(final, 2000, seed, measured)
                expected = sample_counts(oracle, 2000, seed, measured)
                assert drawn.counts() == expected.counts()
            spread += len(drawn.counts()) > 1
            assert simulator.sample_counts(
                circuit, 500, wires=wires, seed=seed
            ).counts() == sample_counts(
                ORACLE.run(circuit, wires=wires), 500, seed
            ).counts()
        assert spread >= 10

    @pytest.mark.parametrize("num_controls, inputs", [
        (9, [(1,) * 9 + (0,), (1, 0) * 4 + (1, 1), (0, 1, 1) * 3 + (0,)]),
        (10, [(1,) * 10 + (1,), (1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0)]),
    ])
    def test_execute_counts_equal_the_dense_oracle(
        self, num_controls, inputs
    ):
        from repro import execute
        from repro.execution.pipeline_spec import PipelineSpec

        circuit, wires = _lowered_tree(num_controls)
        for seed, values in enumerate(inputs, start=11):
            result = execute(
                "qutrit_tree",
                num_controls=num_controls,
                pipeline=PipelineSpec.from_name("lowering"),
                initial=values,
                shots=1000,
                seed=seed,
            )
            oracle = ORACLE.run_basis(circuit, wires, values)
            expected = sample_counts(
                oracle, 1000, np.random.default_rng(seed)
            )
            assert result.state is None
            assert result.measurements.counts() == expected.counts()

    def test_wide_shots_run_builds_no_register(self, monkeypatch):
        # 3^10 amplitudes: a dense run would build the register and
        # cache its gathers (the register is below the gather bound).
        circuit, wires = _lowered_tree(9)
        values = (1,) * 9 + (0,)
        built = []
        construct = StateVector.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(StateVector, "__init__", spy)
        clear_kernel_caches()
        result = StateVectorBackend().run(
            circuit, wires=wires, initial=values, shots=1000, seed=2
        )
        stats = kernel_cache_stats()
        assert built == []
        assert stats["permutation_gathers"] == stats["segment_gathers"] == 0
        assert result.measurements.counts() == {(1,) * 10: 1000}


class TestContracts:
    @pytest.fixture
    def non_classical(self):
        a, b = qubits(2)
        return Circuit([CNOT.on(a, b), H.on(b)]), [a, b]

    def test_batched_surfaces_refuse_non_permutations(self, non_classical):
        circuit, wires = non_classical
        simulator = ClassicalSimulator()
        message = f"gate {H.name} is not a basis permutation"
        calls = [
            lambda: simulator.run_array(
                circuit, wires, np.zeros((1, 2), dtype=np.int64)
            ),
            lambda: simulator.truth_table(circuit, wires),
            lambda: simulator.permutation_vector(circuit, wires),
            lambda: simulator.run_values(circuit, wires, (0, 0)),
            lambda: ClassicalBackend().run(circuit, wires=wires),
        ]
        for call in calls:
            with pytest.raises(NotClassicalError, match=message):
                call()

    @pytest.mark.parametrize("walk", [False, True])
    def test_run_basis_input_errors(self, monkeypatch, walk):
        if walk:
            monkeypatch.setattr(statevector, "_SUPPORT_MIN_AMPLITUDES", 1)
        a, b = qutrits(2)
        circuit = Circuit([QUTRIT_H.on(a), X_PLUS_1.on(b)])
        simulator = StateVectorSimulator()
        with pytest.raises(DimensionMismatchError, match="2 wires but 1"):
            simulator.run_basis(circuit, [a, b], (1,))
        with pytest.raises(ValueError, match="value 3 invalid for wire"):
            simulator.run_basis(circuit, [a, b], (0, 3))
        with pytest.raises(ValueError, match="does not cover"):
            simulator.run_basis(circuit, [a], (0,))

    def test_register_past_int64_indices_is_not_walked(self):
        # Support indices are int64: a register they cannot index takes
        # the dense path, which refuses to build it, as before.
        wires = qutrits(40)
        circuit = Circuit([X_PLUS_1.on(wires[0])])
        with pytest.raises(ValueError, match="array is too big"):
            StateVectorSimulator().evolve_basis(circuit, wires, [0] * 40)

    def test_run_values_keeps_its_scalar_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_values took the support walk")

        monkeypatch.setattr(classical, "_lowered_moments", refuse)
        a, b = qubits(2)
        circuit = Circuit([X.on(a), CNOT.on(a, b)])
        assert ClassicalSimulator().run_values(
            circuit, [a, b], (0, 0)
        ) == (1, 1)

    def test_column_cache_is_cleared_and_reported(self):
        a, b = qutrits(2)
        op = ControlledGate(QUTRIT_H, (3,), (2,)).on(a, b)
        clear_kernel_caches()
        kernel = column_kernel(op)
        assert column_kernel(op) is kernel
        stats = kernel_cache_stats()
        assert stats["column_kernels"] == 1
        # The controlled gate read its sub-gate's block only.
        assert stats["gate_kernels"] == 0
        assert kernel.entries.shape == (9, 3)
        clear_kernel_caches()
        assert kernel_cache_stats()["column_kernels"] == 0

    def test_column_kernel_is_the_unitary(self):
        rng = np.random.default_rng(5)
        a, b = qubits(2)
        t = qutrits(1, start=2)[0]
        for op in [
            H.on(a), Y.on(a), Z3.on(t),
            ControlledGate(QUTRIT_H, (2,), (0,)).on(a, t),
            MatrixGate(random_unitary(6, rng), (2, 3), "U").on(b, t),
        ]:
            kernel = column_kernel(op)
            size = kernel.rows.shape[0]
            rebuilt = np.zeros((size, size), dtype=complex)
            for column in range(size):
                np.add.at(
                    rebuilt[:, column], kernel.rows[column],
                    kernel.entries[column],
                )
            assert np.array_equal(rebuilt, op.unitary())
            assert kernel.diagonal == (op.gate is Z3)
