"""Tests for the density-matrix reference simulator.

The headline test: averaged quantum trajectories converge to the exact
density-matrix fidelity — the claim (Sec. 6.2) that justifies the paper's
entire simulation methodology.
"""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import SimulationError
from repro.gates.controlled import ControlledGate
from repro.gates.qubit import CNOT, H, X
from repro.gates.qutrit import X01, X_PLUS_1
from repro.noise.model import NoiseModel
from repro.qudits import qubits, qutrits
from repro.sim.density import DensityMatrixSimulator, DensityTensor
from repro.sim.state import StateVector
from repro.sim.trajectory import TrajectorySimulator

NOISELESS = NoiseModel("clean", 0.0, 0.0, 1e-7, 3e-7, t1=None)
DEPOL = NoiseModel("depol", 2e-3, 1e-3, 1e-7, 3e-7, t1=None)
DAMPING = NoiseModel("damp", 0.0, 0.0, 1e-6, 3e-6, t1=2e-5)
MIXED = NoiseModel("mixed", 1e-3, 5e-4, 1e-6, 3e-6, t1=1e-4)


def _bell():
    a, b = qubits(2)
    return Circuit([H.on(a), CNOT.on(a, b)]), [a, b]


class TestDensityMatrix:
    def test_pure_state_roundtrip(self):
        wires = qubits(2)
        state = StateVector.computational_basis(wires, (1, 0))
        rho = DensityTensor.from_state(state)
        assert np.isclose(rho.trace(), 1.0)
        assert np.isclose(rho.purity(), 1.0)
        assert np.isclose(rho.fidelity_with_pure(state), 1.0)

    def test_apply_unitary_matches_statevector(self):
        circuit, wires = _bell()
        state = StateVector.zero(wires)
        rho = DensityTensor.from_state(state)
        for op in circuit.all_operations():
            rho.apply_unitary(op.unitary(), list(op.qudits))
            state.apply_operation(op)
        assert np.isclose(rho.fidelity_with_pure(state), 1.0)
        assert np.isclose(rho.purity(), 1.0)

    def test_apply_unitary_middle_wire(self):
        wires = qutrits(3)
        state = StateVector.computational_basis(wires, (0, 1, 0))
        rho = DensityTensor.from_state(state)
        rho.apply_unitary(X_PLUS_1.unitary(), [wires[1]])
        expected = StateVector.computational_basis(wires, (0, 2, 0))
        assert np.isclose(rho.fidelity_with_pure(expected), 1.0)

    def test_two_wire_unitary_with_gap(self):
        wires = qubits(3)
        state = StateVector.computational_basis(wires, (1, 0, 0))
        rho = DensityTensor.from_state(state)
        rho.apply_unitary(CNOT.unitary(), [wires[0], wires[2]])
        expected = StateVector.computational_basis(wires, (1, 0, 1))
        assert np.isclose(rho.fidelity_with_pure(expected), 1.0)

    def test_kraus_reduces_purity(self):
        wires = qubits(1)
        state = StateVector.zero(wires)
        state.apply_operation(H.on(wires[0]))
        rho = DensityTensor.from_state(state)
        # Full dephasing in the computational basis.
        k0 = np.diag([1.0, 0.0]).astype(complex)
        k1 = np.diag([0.0, 1.0]).astype(complex)
        rho.apply_kraus([k0, k1], [wires[0]])
        assert np.isclose(rho.trace(), 1.0)
        assert rho.purity() < 0.75

    def test_size_guard(self):
        wires = qubits(8)
        sim = DensityMatrixSimulator(NOISELESS)
        with pytest.raises(SimulationError):
            sim.run(Circuit([X.on(wires[0])]), StateVector.zero(wires))


class TestExactEvolution:
    def test_noiseless_run_stays_pure(self):
        circuit, wires = _bell()
        sim = DensityMatrixSimulator(NOISELESS)
        rho = sim.run(circuit, StateVector.zero(wires))
        assert np.isclose(rho.purity(), 1.0)
        assert np.isclose(sim.mean_fidelity(circuit, StateVector.zero(wires)), 1.0)

    def test_depolarizing_fidelity_closed_form(self):
        # One noisy two-qubit gate: F = (1-15p2) + error-overlap terms;
        # for a basis input and CNOT, X-type errors move the state to
        # orthogonal basis states and Z-type errors leave it invariant.
        a, b = qubits(2)
        circuit = Circuit([CNOT.on(a, b)])
        sim = DensityMatrixSimulator(DEPOL)
        initial = StateVector.computational_basis([a, b], (0, 0))
        fidelity = sim.mean_fidelity(circuit, initial)
        p2 = DEPOL.p2
        survivors = 1 - 15 * p2 + 3 * p2  # identity + the 3 pure-Z errors
        assert np.isclose(fidelity, survivors, atol=1e-9)

    def test_damping_fidelity_closed_form(self):
        # An excited qubit idling one single-qudit moment: F = 1 - lambda1.
        a = qubits(1)[0]
        circuit = Circuit([X.on(a)])
        sim = DensityMatrixSimulator(DAMPING)
        initial = StateVector.zero([a])
        lam1 = DAMPING.idle_lambdas(2, DAMPING.gate_time_1q)[0]
        fidelity = sim.mean_fidelity(circuit, initial)
        assert np.isclose(fidelity, 1 - lam1, atol=1e-9)

    def test_trace_preserved_through_noisy_run(self):
        wires = qutrits(2)
        circuit = Circuit(
            [
                X_PLUS_1.on(wires[0]),
                ControlledGate(X01, (3,), (2,)).on(wires[0], wires[1]),
            ]
        )
        sim = DensityMatrixSimulator(MIXED)
        rho = sim.run(circuit, StateVector.zero(wires))
        assert np.isclose(rho.trace(), 1.0, atol=1e-9)


class TestTrajectoryConvergence:
    """Sec. 6.2's claim: trajectories average to the density matrix."""

    @pytest.mark.parametrize("model", [DEPOL, DAMPING, MIXED])
    def test_mean_trajectory_fidelity_converges(self, model):
        a, b = qutrits(2)
        circuit = Circuit(
            [
                ControlledGate(X_PLUS_1, (3,), (1,)).on(a, b),
                ControlledGate(X01, (3,), (2,)).on(b, a),
                ControlledGate(X_PLUS_1.inverse(), (3,), (1,)).on(a, b),
            ]
        )
        rng = np.random.default_rng(31)
        initial = StateVector.random(
            [a, b], rng, levels_per_wire={a: 2, b: 2}
        )
        exact = DensityMatrixSimulator(model).mean_fidelity(
            circuit, initial
        )
        sim = TrajectorySimulator(model, rng)
        trials = 600
        mean = np.mean(
            [
                sim.run_trajectory(circuit, initial).fidelity
                for _ in range(trials)
            ]
        )
        # Monte-Carlo error at 600 trials is well under 0.02 here.
        assert abs(mean - exact) < 0.02, (model.name, mean, exact)

    def test_convergence_on_qubit_circuit(self):
        circuit, wires = _bell()
        rng = np.random.default_rng(32)
        initial = StateVector.zero(wires)
        exact = DensityMatrixSimulator(DEPOL).mean_fidelity(
            circuit, initial
        )
        sim = TrajectorySimulator(DEPOL, rng)
        mean = np.mean(
            [
                sim.run_trajectory(circuit, initial).fidelity
                for _ in range(600)
            ]
        )
        assert abs(mean - exact) < 0.015
