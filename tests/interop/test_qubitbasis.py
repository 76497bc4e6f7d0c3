"""CNOT + single-qubit lowering: the naive-lift baseline compiler."""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import InteropError
from repro.gates.controlled import ControlledGate
from repro.gates.matrix import MatrixGate
from repro.gates.qubit import (
    CNOT,
    H,
    P,
    RY,
    RZ,
    S,
    SWAP,
    T,
    TOFFOLI,
    X,
    Z,
)
from repro.gates.qutrit import X01
from repro.interop import (
    DecomposeToQubitBasis,
    to_qubit_basis,
    zyz_angles,
)
from repro.interop.workloads import grover_circuit, qft_circuit
from repro.qudits import qubits, qutrits
from repro.verify import assert_equivalent


def _random_unitary(rng):
    matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(matrix)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _is_qubit_basis(circuit):
    for op in circuit.all_operations():
        if op.gate.num_qudits == 1:
            continue
        if op.gate.canonical_spec() != CNOT.canonical_spec():
            return False
    return True


class TestZyzAngles:
    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        unitary = _random_unitary(rng)
        alpha, beta, gamma, delta = zyz_angles(unitary)
        rebuilt = (
            np.exp(1j * alpha)
            * RZ(beta).unitary()
            @ RY(gamma).unitary()
            @ RZ(delta).unitary()
        )
        assert np.allclose(rebuilt, unitary, atol=1e-9)

    @pytest.mark.parametrize(
        "gate", [H, S, T, X, Z, P(0.3), RY(1.1), RZ(-2.7)]
    )
    def test_named_gates(self, gate):
        unitary = gate.unitary()
        alpha, beta, gamma, delta = zyz_angles(unitary)
        rebuilt = (
            np.exp(1j * alpha)
            * RZ(beta).unitary()
            @ RY(gamma).unitary()
            @ RZ(delta).unitary()
        )
        assert np.allclose(rebuilt, unitary, atol=1e-9)


class TestToQubitBasis:
    @pytest.mark.parametrize("seed", range(5))
    def test_controlled_random_unitary(self, seed):
        rng = np.random.default_rng(100 + seed)
        sub = MatrixGate(_random_unitary(rng), (2,), name="U")
        a, b = qubits(2)
        op = ControlledGate(sub, (2,)).on(a, b)
        decomposed = Circuit(to_qubit_basis(op))
        assert _is_qubit_basis(decomposed)
        assert_equivalent(decomposed, Circuit([op]))

    def test_control_value_zero(self):
        a, b = qubits(2)
        op = ControlledGate(H, (2,), (0,)).on(a, b)
        decomposed = Circuit(to_qubit_basis(op))
        assert _is_qubit_basis(decomposed)
        assert_equivalent(decomposed, Circuit([op]))

    def test_controlled_phase_uses_five_ops(self):
        a, b = qubits(2)
        op = ControlledGate(P(0.7), (2,)).on(a, b)
        ops = to_qubit_basis(op)
        assert len(ops) == 5
        assert_equivalent(Circuit(ops), Circuit([op]))

    def test_cnot_passes_through(self):
        a, b = qubits(2)
        ops = to_qubit_basis(CNOT.on(a, b))
        assert len(ops) == 1
        assert ops[0].gate.canonical_spec() == CNOT.canonical_spec()

    def test_toffoli_lowers_to_fifteen(self):
        a, b, c = qubits(3)
        op = TOFFOLI.on(a, b, c)
        ops = to_qubit_basis(op)
        assert len(ops) == 15
        decomposed = Circuit(ops)
        assert _is_qubit_basis(decomposed)
        assert_equivalent(decomposed, Circuit([op]))

    def test_swap_is_three_cnots(self):
        a, b = qubits(2)
        ops = to_qubit_basis(SWAP.on(a, b))
        assert len(ops) == 3
        assert all(
            op.gate.canonical_spec() == CNOT.canonical_spec()
            for op in ops
        )
        assert_equivalent(
            Circuit(ops), Circuit([SWAP.on(a, b)])
        )

    def test_two_controlled_unitary(self):
        a, b, c = qubits(3)
        op = ControlledGate(T, (2, 2)).on(a, b, c)
        decomposed = Circuit(to_qubit_basis(op))
        assert _is_qubit_basis(decomposed)
        assert_equivalent(decomposed, Circuit([op]))

    def test_non_qubit_wire_rejected(self):
        (a,) = qutrits(1)
        with pytest.raises(InteropError):
            to_qubit_basis(X01.on(a))


class TestDecomposeToQubitBasisPass:
    @pytest.mark.parametrize(
        "circuit", [qft_circuit(3), grover_circuit(2)]
    )
    def test_workloads_lower_and_stay_equivalent(self, circuit):
        compile_pass = DecomposeToQubitBasis()
        lowered = compile_pass.transform(circuit)
        assert _is_qubit_basis(lowered)
        assert_equivalent(lowered, circuit)
        metadata = compile_pass.last_metadata
        assert metadata["input_operations"] == circuit.num_operations
        assert metadata["output_operations"] == lowered.num_operations

    def test_qutrit_circuit_rejected(self):
        (a,) = qutrits(1)
        with pytest.raises(InteropError):
            DecomposeToQubitBasis().transform(Circuit([X01.on(a)]))
