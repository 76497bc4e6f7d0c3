"""Canonical circuit identity: fingerprints, cache keys, and sharding.

Regression suite for the documented cache-collision hazard the v1
fingerprint carried (same-named gates with different matrices collided)
and for the guarantee that process-pool sharding over *serialized*
circuits returns results identical to the in-process path.
"""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.execution import (
    FidelityResult,
    ResultCache,
    circuit_fingerprint,
    execute,
)
from repro.gates import CNOT, H, MatrixGate
from repro.noise.model import NoiseModel
from repro.qudits import qubits
from repro.toffoli.registry import build_toffoli

NOISY = NoiseModel("noisy", 2e-3, 1e-3, 1e-7, 3e-7, t1=None)


class TestFingerprintIdentity:
    def test_same_name_different_matrix_fingerprints_differ(self):
        """Regression: same-named gates must not collide (old hazard)."""
        wire = qubits(1)[0]
        gate_a = MatrixGate(np.eye(2), (2,), name="G")
        gate_b = MatrixGate(np.diag([1, -1]), (2,), name="G")
        circuit_a = Circuit([gate_a.on(wire)])
        circuit_b = Circuit([gate_b.on(wire)])
        assert circuit_fingerprint(circuit_a) != circuit_fingerprint(
            circuit_b
        )

    def test_fingerprint_tracks_structural_equality(self):
        a = build_toffoli("qutrit_tree", 4).circuit
        b = build_toffoli("qutrit_tree", 4).circuit
        assert a == b
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        c = build_toffoli("qutrit_tree", 5).circuit
        assert circuit_fingerprint(a) != circuit_fingerprint(c)

    def test_fingerprint_survives_serialization(self):
        circuit = build_toffoli("wang_chain", 4).circuit
        rebuilt = Circuit.from_json(circuit.to_json())
        assert circuit_fingerprint(rebuilt) == circuit_fingerprint(circuit)

    def test_wire_binding_matters(self):
        a, b = qubits(2)
        assert circuit_fingerprint(
            Circuit([CNOT.on(a, b)])
        ) != circuit_fingerprint(Circuit([CNOT.on(b, a)]))

    def test_signed_zero_does_not_split_fingerprints(self):
        """Regression: -0.0 and 0.0 compare equal, so structurally
        equal circuits (e.g. via np.conj in gate inverses) must
        fingerprint equal too."""
        from repro.gates import S, S_DAG

        wire = qubits(1)[0]
        via_inverse = Circuit([S.inverse().on(wire)])
        direct = Circuit([S_DAG.on(wire)])
        assert via_inverse == direct
        assert circuit_fingerprint(via_inverse) == circuit_fingerprint(
            direct
        )


class TestCacheCanonicalKeys:
    def test_cache_hits_across_equivalent_builds(self):
        """Two separately-built equal circuits share one cache line."""
        cache = ResultCache()
        first = execute(
            build_toffoli("qutrit_tree", 4).circuit,
            backend="statevector",
            cache=cache,
        )
        assert cache.stats.hits == 0
        second = execute(
            build_toffoli("qutrit_tree", 4).circuit,
            backend="statevector",
            cache=cache,
        )
        assert cache.stats.hits == 1
        assert np.allclose(first.state.vector, second.state.vector)

    def test_colliding_names_get_distinct_entries(self):
        wire = qubits(1)[0]
        gate_a = MatrixGate(np.eye(2), (2,), name="G")
        gate_b = MatrixGate(
            np.array([[0, 1], [1, 0]], dtype=complex), (2,), name="G"
        )
        cache = ResultCache()
        result_a = execute(
            Circuit([gate_a.on(wire)]), backend="statevector", cache=cache
        )
        result_b = execute(
            Circuit([gate_b.on(wire)]), backend="statevector", cache=cache
        )
        assert cache.stats.hits == 0
        assert not np.allclose(
            result_a.state.vector, result_b.state.vector
        )


class TestSerializedSharding:
    def _circuit(self):
        a, b, c = qubits(3)
        return Circuit([H.on(a), CNOT.on(a, b), CNOT.on(b, c)])

    def test_pool_tasks_carry_serialized_circuits(self):
        """What crosses the process boundary is the JSON wire form."""
        from repro.execution.facade import _Task, _serialized

        circuit = self._circuit()
        task = _Task(
            circuit=circuit, backend="statevector", noise_model=None,
            wires=None, initial=None, shots=None, trials=None,
            seed=None, params=(), point=0, shard=0,
        )
        shipped = _serialized(task)
        assert shipped.circuit is None
        assert Circuit.from_json(shipped.circuit_data) == circuit
        # Idempotent: serializing an already-serialized task is a no-op.
        assert _serialized(shipped) is shipped

    def test_pool_shards_match_in_process_estimates_exactly(self):
        """The worker path (JSON-serialized circuits) is bit-identical to
        running the same shards in process."""
        circuit = self._circuit()
        trials, seed, workers = 40, 7, 2
        config = dict(backend="trajectory", noise_model=NOISY)
        pooled = execute(
            circuit, trials=trials, seed=seed, parallel=True,
            workers=workers, **config,
        )
        base, extra = divmod(trials, workers)
        in_process = FidelityResult.merge(
            [
                execute(
                    circuit,
                    trials=base + (1 if index < extra else 0),
                    seed=seed * 1_000_003 + index,
                    **config,
                )
                for index in range(workers)
            ]
        )
        assert pooled.metadata["merged_shards"] == workers
        assert pooled.mean_fidelity == in_process.mean_fidelity
        assert pooled.std_error == in_process.std_error
        assert pooled.trials == in_process.trials

    @pytest.mark.slow
    def test_parallel_sweep_matches_serial_exactly_on_statevector(self):
        serial = execute(
            "qutrit_tree",
            backend="statevector",
            sweep={"num_controls": [3, 4]},
        )
        parallel = execute(
            "qutrit_tree",
            backend="statevector",
            sweep={"num_controls": [3, 4]},
            parallel=True,
            workers=2,
        )
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.state.vector, p.state.vector)
