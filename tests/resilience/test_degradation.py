"""Admission control: closed-form estimates and the downgrade ladder."""

import pytest

from repro.circuits.circuit import Circuit
from repro.execution import resolve_backend
from repro.gates.qubit import X
from repro.gates.qutrit import X01
from repro.noise.model import NoiseModel
from repro.qudits import qubits, qutrits
from repro.resilience import (
    AdmissionError,
    AdmissionPolicy,
    estimate_memory_bytes,
    state_entries,
)
from repro.sim.trajectory import BatchedTrajectorySimulator


def circuit_of(wires, gate=X):
    return Circuit([gate.on(wire) for wire in wires])


@pytest.fixture()
def small():
    return circuit_of(qubits(4))  # 16 amplitudes


class TestEstimates:
    def test_state_entries_multiplies_dimensions(self):
        assert state_entries(circuit_of(qubits(4))) == 16
        assert state_entries(circuit_of(qutrits(3), gate=X01)) == 27

    def test_statevector_bytes(self, small):
        assert estimate_memory_bytes(small, "statevector") == 16 * 16

    def test_density_squares_the_state(self, small):
        assert estimate_memory_bytes(small, "density") == 16 * 16 * 16

    def test_classical_never_dominates(self, small):
        assert estimate_memory_bytes(small, "classical") == 8 * 4

    @pytest.mark.parametrize("wires, trials", [
        (qubits(4), 10_000),
        (qubits(6), 500),
        (qutrits(10), 100),
        (qutrits(12), 10),
        (qubits(3), 1),
        (qubits(3), None),
    ])
    def test_trajectory_estimate_is_the_engine_stack(
        self, monkeypatch, wires, trials
    ):
        # The estimate holds a noisy and a noise-free row per trial of
        # the chunk the trajectory backend hands the engine.
        class Stop(Exception):
            pass

        chunks = []

        def spy(self, circuit, wires, trials, batch_size):
            chunks.append(batch_size)
            raise Stop

        monkeypatch.setattr(BatchedTrajectorySimulator, "run_trials", spy)
        gate = X if wires[0].dimension == 2 else X01
        circuit = circuit_of(wires, gate=gate)
        backend = resolve_backend(
            "trajectory", NoiseModel("m", 1e-3, 1e-3, 1e-7, 3e-7, t1=None)
        )
        with pytest.raises(Stop):
            backend.run(circuit, trials=trials, seed=1)
        entries = state_entries(circuit)
        estimate = estimate_memory_bytes(circuit, "trajectory", trials=trials)
        assert estimate == 2 * 16 * entries * chunks[0]
        assert estimate <= 2 * 16 * max(1 << 18, entries)

    def test_parallel_multiplies_by_workers(self, small):
        serial = estimate_memory_bytes(small, "statevector")
        fanned = estimate_memory_bytes(
            small, "statevector", parallel=True, workers=4,
        )
        assert fanned == 4 * serial


class TestReviewLadder:
    def test_admit_within_budget(self, small):
        policy = AdmissionPolicy(max_state_bytes=1 << 20)
        decision = policy.review(small, "statevector")
        assert decision.action == "admit"
        assert decision.admitted
        assert decision.downgrades == ()

    def test_parallel_downgrades_to_serial(self, small):
        serial_cost = estimate_memory_bytes(small, "statevector")
        policy = AdmissionPolicy(max_state_bytes=serial_cost)
        decision = policy.review(
            small, "statevector", parallel=True, workers=4,
        )
        assert decision.action == "downgrade"
        assert decision.downgrades == ("parallel-to-serial",)
        assert decision.estimated_bytes == serial_cost

    @pytest.mark.parametrize("parallel, downgrades", [
        (False, ()), (True, ("parallel-to-serial",)),
    ])
    def test_trajectory_over_serial_budget_is_rejected(
        self, small, parallel, downgrades
    ):
        # Serial is the last rung: the engine's chunks come from the
        # register, so no smaller stack is left to fall back on.
        serial_cost = estimate_memory_bytes(small, "trajectory", trials=100)
        policy = AdmissionPolicy(max_state_bytes=serial_cost - 1)
        decision = policy.review(
            small, "trajectory", trials=100, parallel=parallel, workers=4,
        )
        assert decision.action == "reject"
        assert decision.downgrades == downgrades
        assert decision.estimated_bytes == serial_cost

    def test_reject_when_no_rung_is_enough(self, small):
        policy = AdmissionPolicy(max_state_bytes=1)
        decision = policy.review(small, "statevector")
        assert decision.action == "reject"
        assert not decision.admitted
        assert "budget" in decision.reason

    def test_admission_error_is_typed(self):
        from repro.exceptions import ReproError

        assert issubclass(AdmissionError, ReproError)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_state_bytes=0)
