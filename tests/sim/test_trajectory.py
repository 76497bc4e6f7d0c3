"""Tests for the quantum-trajectory simulator (Algorithm 1)."""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.gates.controlled import ControlledGate
from repro.gates.qubit import CNOT, H, X
from repro.gates.qutrit import X01, X_PLUS_1
from repro.noise.model import NoiseModel
from repro.noise.presets import SC, DRESSED_QUTRIT
from repro.qudits import qubits, qutrits
from repro.sim.state import StateVector
from repro.sim.statevector import StateVectorSimulator
from repro.sim.trajectory import TrajectorySimulator

NOISELESS = NoiseModel("noiseless", 0.0, 0.0, 1e-7, 3e-7, t1=None)
GATE_HEAVY = NoiseModel("gate_heavy", 0.02, 0.01, 1e-7, 3e-7, t1=None)
DAMP_ONLY = NoiseModel("damp_only", 0.0, 0.0, 1e-4, 1e-4, t1=1e-3)


def _bell_circuit():
    a, b = qubits(2)
    return Circuit([H.on(a), CNOT.on(a, b)]), [a, b]


class TestNoiselessLimit:
    def test_fidelity_is_one_without_noise(self, rng):
        circuit, wires = _bell_circuit()
        sim = TrajectorySimulator(NOISELESS, rng)
        initial = StateVector.zero(wires)
        result = sim.run_trajectory(circuit, initial)
        assert np.isclose(result.fidelity, 1.0)
        assert result.gate_errors == 0
        assert result.idle_jumps == 0

    def test_qutrit_circuit_noiseless(self, rng):
        a, b = qutrits(2)
        circuit = Circuit(
            [X_PLUS_1.on(a), ControlledGate(X01, (3,), (1,)).on(a, b)]
        )
        sim = TrajectorySimulator(NOISELESS, rng)
        result = sim.run_trajectory(circuit, StateVector.zero([a, b]))
        assert np.isclose(result.fidelity, 1.0)


class TestErrorAccounting:
    def test_gate_errors_recorded(self, rng):
        circuit, wires = _bell_circuit()
        sim = TrajectorySimulator(GATE_HEAVY, rng)
        total_errors = 0
        for _ in range(200):
            result = sim.run_trajectory(circuit, StateVector.zero(wires))
            total_errors += result.gate_errors
        # Expected: 2 gates, total error prob 3*0.02 + 15*0.01 = 0.21/run.
        assert 10 < total_errors < 90

    def test_idle_jumps_recorded(self, rng):
        a, b = qubits(2)
        # Excited wire idling for many long moments under heavy damping.
        circuit = Circuit([X.on(a)])
        for _ in range(30):
            circuit.append_moment([X.on(b), ])
        sim = TrajectorySimulator(DAMP_ONLY, rng)
        jumps = 0
        for _ in range(50):
            result = sim.run_trajectory(
                circuit, StateVector.zero([a, b])
            )
            jumps += result.idle_jumps
        assert jumps > 0

    def test_fidelity_degrades_with_noise(self, rng):
        circuit, wires = _bell_circuit()
        sim = TrajectorySimulator(GATE_HEAVY, rng)
        fidelities = [
            sim.run_trajectory(circuit, StateVector.zero(wires)).fidelity
            for _ in range(100)
        ]
        assert 0.5 < np.mean(fidelities) < 0.999


class TestInputs:
    def test_random_binary_input_avoids_level_two(self, rng):
        wires = qutrits(3)
        sim = TrajectorySimulator(DRESSED_QUTRIT, rng)
        state = sim.random_binary_input(wires)
        for wire in wires:
            assert np.isclose(state.level_populations(wire)[2], 0.0)

    def test_ideal_final_state_matches_plain_run(self):
        # Without a supplied ideal, a trajectory scores against the
        # noise-free run of its input: the same draws give the same
        # result as supplying that run.
        circuit, wires = _bell_circuit()
        initial = StateVector.zero(wires)
        ideal = StateVectorSimulator().run(circuit, initial)
        assert np.isclose(ideal.probability_of((0, 0)), 0.5)
        results = [
            TrajectorySimulator(SC, np.random.default_rng(3))
            .run_trajectory(circuit, initial, *supplied)
            for supplied in ((), (ideal,))
        ]
        assert results[0] == results[1]

    def test_state_must_cover_circuit(self, rng):
        circuit, wires = _bell_circuit()
        sim = TrajectorySimulator(SC, rng)
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            sim.run_trajectory(circuit, StateVector.zero(wires[:1]))

    def test_deterministic_given_seed(self):
        circuit, wires = _bell_circuit()
        results = []
        for _ in range(2):
            sim = TrajectorySimulator(SC, np.random.default_rng(99))
            initial = StateVector.zero(wires)
            results.append(sim.run_trajectory(circuit, initial).fidelity)
        assert results[0] == results[1]
