"""Trajectory sharding: exact shard merging and ``execute(parallel=True)``."""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.execution import FidelityResult, execute
from repro.gates.qubit import CNOT, H
from repro.noise.model import NoiseModel
from repro.qudits import qubits
from repro.sim.fidelity import FidelityEstimate

NOISY = NoiseModel("noisy", 2e-3, 1e-3, 1e-7, 3e-7, t1=None)


def _circuit():
    a, b, c = qubits(3)
    return Circuit([H.on(a), CNOT.on(a, b), CNOT.on(b, c)])


def _shard(trials, mean, stderr, gate_errors=0.0):
    return FidelityResult(
        backend="trajectory",
        wires=(),
        estimate=FidelityEstimate(
            circuit_name="c",
            noise_model_name="m",
            trials=trials,
            mean_fidelity=mean,
            std_error=stderr,
            mean_gate_errors=gate_errors,
            mean_idle_jumps=0.0,
        ),
    )


def _run(trials, seed, **options):
    return execute(
        _circuit(), backend="trajectory", noise_model=NOISY,
        trials=trials, seed=seed, **options,
    )


class TestMerge:
    def test_weighted_mean(self):
        merged = FidelityResult.merge(
            [_shard(10, 0.9, 0.0), _shard(30, 0.5, 0.0)]
        )
        assert np.isclose(merged.mean_fidelity, 0.6)
        assert merged.trials == 40
        assert merged.metadata["merged_shards"] == 2

    def test_single_shard_passthrough(self):
        merged = FidelityResult.merge([_shard(10, 0.8, 0.01, gate_errors=1.5)])
        assert np.isclose(merged.mean_fidelity, 0.8)
        assert np.isclose(merged.estimate.mean_gate_errors, 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FidelityResult.merge([])

    def test_pooled_variance_nonnegative(self):
        merged = FidelityResult.merge(
            [_shard(20, 0.7, 0.02), _shard(20, 0.75, 0.03)]
        )
        assert merged.std_error >= 0


class TestParallelEstimate:
    def test_small_jobs_fall_back_to_serial(self):
        result = _run(4, 1, parallel=True, workers=4)
        assert result.trials == 4
        assert "merged_shards" not in result.metadata

    def test_parallel_run_matches_statistics(self):
        # Parallel and serial estimates come from different streams but
        # must agree within combined error bars on an easy circuit.
        serial = _run(120, 5)
        parallel = _run(120, 5, parallel=True, workers=2)
        assert parallel.trials == 120
        tolerance = 4 * (serial.std_error + parallel.std_error) + 1e-3
        assert abs(
            parallel.mean_fidelity - serial.mean_fidelity
        ) < max(tolerance, 0.05)

    def test_deterministic_given_seed_and_workers(self):
        a = _run(40, 9, parallel=True, workers=2)
        b = _run(40, 9, parallel=True, workers=2)
        assert a.mean_fidelity == b.mean_fidelity
