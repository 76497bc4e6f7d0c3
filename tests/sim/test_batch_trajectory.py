"""Batched trajectory engine: statistics, determinism, and edge cases.

The batched engine consumes its RNG stream differently from the looped
reference, so fixed-seed results are compared *statistically* (same
distribution), while determinism is asserted draw-for-draw per engine.
"""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import SimulationError
from repro.gates.controlled import ControlledGate
from repro.gates.qubit import CNOT, H
from repro.gates.qutrit import X01, X_PLUS_1
from repro.noise.model import NoiseModel
from repro.qudits import qubits, qutrits
from repro.sim.density import DensityMatrixSimulator
from repro.sim import fidelity as fidelity_module
from repro.sim.fidelity import (
    estimate_circuit_fidelity,
    estimate_circuit_fidelity_looped,
    resolve_batch_size,
)
from repro.sim.state import StateVector
from repro.sim.trajectory import BatchedTrajectorySimulator

DEPOL = NoiseModel("depol", 2e-3, 1e-3, 1e-7, 3e-7, t1=None)
MIXED = NoiseModel("mixed", 1e-3, 5e-4, 1e-6, 3e-6, t1=1e-4)
DEPHASING = NoiseModel(
    "dephasing", 0.0, 0.0, 1e-6, 3e-6, t1=None, idle_dephasing_rate=0.03
)


def _qutrit_circuit():
    a, b = qutrits(2)
    return (
        Circuit(
            [
                ControlledGate(X_PLUS_1, (3,), (1,)).on(a, b),
                ControlledGate(X01, (3,), (2,)).on(b, a),
                ControlledGate(X_PLUS_1.inverse(), (3,), (1,)).on(a, b),
            ]
        ),
        [a, b],
    )


def _ghz_circuit(width=3):
    wires = qubits(width)
    ops = [H.on(wires[0])]
    ops.extend(CNOT.on(wires[i], wires[i + 1]) for i in range(width - 1))
    return Circuit(ops), wires


class TestBatchedVsDensity:
    @pytest.mark.parametrize("model", [DEPOL, MIXED, DEPHASING])
    def test_batched_mean_converges_to_exact(self, model):
        circuit, wires = _qutrit_circuit()
        rng = np.random.default_rng(31)
        initial = StateVector.random(
            wires, rng, levels_per_wire={w: 2 for w in wires}
        )
        exact = DensityMatrixSimulator(model).mean_fidelity(
            circuit, initial
        )
        simulator = BatchedTrajectorySimulator(model, rng)
        results = simulator.run_batch(circuit, [initial] * 1200)
        mean = np.mean([r.fidelity for r in results])
        assert abs(mean - exact) < 0.015, (model.name, mean, exact)


class TestBatchedVsLooped:
    def test_fixed_seed_statistics_agree(self):
        # The satellite requirement: batched and looped estimates from
        # fixed seeds must agree within combined error bars.
        circuit, _ = _ghz_circuit()
        model = NoiseModel("noisy", 5e-3, 2e-3, 1e-7, 3e-7, t1=None)
        batched = estimate_circuit_fidelity(
            circuit, model, trials=400, seed=42
        )
        looped = estimate_circuit_fidelity_looped(
            circuit, model, trials=400, seed=42
        )
        tolerance = 4 * (batched.std_error + looped.std_error) + 1e-3
        assert abs(
            batched.mean_fidelity - looped.mean_fidelity
        ) < max(tolerance, 0.05)
        # Error-rate statistics must agree too, not just fidelity.
        assert abs(
            batched.mean_gate_errors - looped.mean_gate_errors
        ) < 0.35 * max(batched.mean_gate_errors, 0.2)

    def test_batch_of_one_matches_distribution_shape(self):
        circuit, wires = _qutrit_circuit()
        simulator = BatchedTrajectorySimulator(
            MIXED, np.random.default_rng(8)
        )
        initial = StateVector.zero(wires)
        results = simulator.run_batch(circuit, [initial])
        assert len(results) == 1
        assert 0.0 <= results[0].fidelity <= 1.0 + 1e-9


class TestDeterminism:
    def test_batched_estimate_reproducible(self):
        circuit, _ = _ghz_circuit()
        model = NoiseModel("noisy", 5e-3, 2e-3, 1e-7, 3e-7, t1=None)
        a = estimate_circuit_fidelity(circuit, model, trials=50, seed=9)
        b = estimate_circuit_fidelity(circuit, model, trials=50, seed=9)
        assert a.mean_fidelity == b.mean_fidelity
        assert a.mean_gate_errors == b.mean_gate_errors

    def test_chunk_size_changes_stream_not_distribution(self, monkeypatch):
        circuit, wires = _ghz_circuit()
        model = NoiseModel("noisy", 5e-3, 2e-3, 1e-7, 3e-7, t1=None)
        full = estimate_circuit_fidelity(circuit, model, trials=60, seed=3)
        assert resolve_batch_size(wires, 60) == 60
        # Three qubits are 8 amplitudes: a budget of 16 rows of them.
        monkeypatch.setattr(fidelity_module, "_AUTO_BATCH_ENTRIES", 16 * 8)
        assert resolve_batch_size(wires, 60) == 16
        chunked = estimate_circuit_fidelity(
            circuit, model, trials=60, seed=3
        )
        # Different chunking => different draws...
        assert full.mean_fidelity != chunked.mean_fidelity
        # ...but the same distribution (generous bound; both are tight
        # estimates of the same mean).
        assert abs(full.mean_fidelity - chunked.mean_fidelity) < 0.1

    def test_noiseless_batched_estimate_is_unity(self):
        circuit, _ = _ghz_circuit()
        clean = NoiseModel("clean", 0.0, 0.0, 1e-7, 3e-7, t1=None)
        estimate = estimate_circuit_fidelity(
            circuit, clean, trials=8, seed=1
        )
        assert np.isclose(estimate.mean_fidelity, 1.0)
        assert estimate.mean_gate_errors == 0.0
        assert estimate.mean_idle_jumps == 0.0


class TestResolveBatchSize:
    def test_single_trial_never_batches(self):
        assert resolve_batch_size(qubits(2), 1) == 1

    def test_clamped_to_trials_and_row_cap(self):
        assert resolve_batch_size(qubits(2), 40) == 40
        assert resolve_batch_size(qubits(2), 10_000) == 1024
        # Above 2^18 amplitudes every chunk is one row.
        assert resolve_batch_size(qutrits(12), 40) == 1

    def test_scales_down_with_state_size(self):
        small_state = resolve_batch_size(qubits(2), 10_000)
        large_state = resolve_batch_size(qutrits(10), 10_000)
        assert small_state > large_state
        assert large_state >= 1

    def test_deterministic_in_shapes_only(self):
        assert resolve_batch_size(qutrits(5), 300) == (
            resolve_batch_size(qutrits(5), 300)
        )


class TestEdgeCases:
    def test_empty_batch_returns_empty(self):
        circuit, _ = _qutrit_circuit()
        simulator = BatchedTrajectorySimulator(
            MIXED, np.random.default_rng(0)
        )
        assert simulator.run_batch(circuit, []) == []

    def test_mismatched_wire_orders_rejected(self):
        circuit, wires = _qutrit_circuit()
        simulator = BatchedTrajectorySimulator(
            MIXED, np.random.default_rng(0)
        )
        forward = StateVector.zero(wires)
        backward = StateVector.zero(list(reversed(wires)))
        with pytest.raises(SimulationError):
            simulator.run_batch(circuit, [forward, backward])

    def test_state_must_cover_circuit_wires(self):
        circuit, wires = _qutrit_circuit()
        simulator = BatchedTrajectorySimulator(
            MIXED, np.random.default_rng(0)
        )
        partial = StateVector.zero(wires[:1])
        with pytest.raises(SimulationError):
            simulator.run_batch(circuit, [partial])

    def test_random_binary_inputs_stay_binary(self):
        _, wires = _qutrit_circuit()
        simulator = BatchedTrajectorySimulator(
            MIXED, np.random.default_rng(4)
        )
        for state in simulator.random_binary_inputs(wires, 5):
            tensor = state.tensor
            assert np.allclose(tensor[2, :], 0.0)
            assert np.allclose(tensor[:, 2], 0.0)

    def test_counters_match_looped_scale(self):
        # Gate-error counts from the two engines must track the same
        # expectation (40 gates x 80 p2 here).
        p2 = 2e-3
        model = NoiseModel("m", 0.0, p2, 1e-7, 3e-7, t1=None)
        a, b = qutrits(2)
        op = ControlledGate(X_PLUS_1, (3,), (1,))
        circuit = Circuit([op.on(a, b) for _ in range(40)])
        simulator = BatchedTrajectorySimulator(
            model, np.random.default_rng(2)
        )
        initial = StateVector.zero([a, b])
        results = simulator.run_batch(circuit, [initial] * 300)
        measured = np.mean([r.gate_errors for r in results])
        expected = 40 * 80 * p2
        assert abs(measured - expected) < 0.3 * expected + 0.05
