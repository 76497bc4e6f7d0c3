"""Kernel caches: correctness of the lowered blocks and cache identity."""

import numpy as np
import pytest

from repro.gates.matrix import MatrixGate
from repro.gates.qubit import CNOT, H, X
from repro.gates.qutrit import X_PLUS_1
from repro.noise.damping import amplitude_damping_channel
from repro.noise.depolarizing import (
    single_qudit_depolarizing,
    two_qudit_depolarizing,
)
from repro.qudits import qubits, qutrits
from repro.sim.kernels import (
    GATHER_CACHE_ENTRIES,
    channel_kernel,
    clear_kernel_caches,
    gate_kernel,
    kernel_cache_stats,
    permutation_gather,
    permutation_kernel,
    segment_permutation_gather,
)


class TestGateKernels:
    def test_block_is_reshaped_unitary(self):
        a, b = qubits(2)
        op = CNOT.on(a, b)
        kernel = gate_kernel(op)
        assert kernel.dims == (2, 2)
        assert kernel.block.shape == (2, 2, 2, 2)
        assert np.allclose(
            kernel.block.reshape(4, 4), CNOT.unitary(), atol=0
        )
        assert np.allclose(kernel.conj_block, kernel.block.conj(), atol=0)

    def test_structurally_equal_gates_share_one_entry(self):
        clear_kernel_caches()
        a, b = qubits(2), qutrits(1)[0]
        gate_kernel(H.on(a[0]))
        count = kernel_cache_stats()["gate_kernels"]
        # Same gate on a different wire: no new kernel.
        gate_kernel(H.on(a[1]))
        assert kernel_cache_stats()["gate_kernels"] == count
        # A hand-built matrix gate with the same matrix also matches the
        # canonical (content-addressed) spec.
        clone = MatrixGate(H.unitary(), (2,), name="h-clone")
        gate_kernel(clone.on(a[0]))
        assert kernel_cache_stats()["gate_kernels"] == count
        # A genuinely different gate adds one.
        gate_kernel(X_PLUS_1.on(b))
        assert kernel_cache_stats()["gate_kernels"] == count + 1

    def test_cached_block_matches_fresh_computation(self):
        a, b = qutrits(2)
        from repro.gates.controlled import ControlledGate

        op = ControlledGate(X_PLUS_1, (3,), (1,)).on(a, b)
        first = gate_kernel(op)
        second = gate_kernel(op)
        assert first is second
        assert np.allclose(
            first.block.reshape(9, 9), op.unitary(), atol=0
        )


class TestChannelKernels:
    def test_kraus_channel_blocks(self):
        channel = amplitude_damping_channel(3, (0.1, 0.2))
        kernel = channel_kernel(channel)
        assert kernel.dims == (3,)
        assert len(kernel.blocks) == 3
        stacked = [b.reshape(3, 3) for b in kernel.blocks]
        completeness = sum(op.conj().T @ op for op in stacked)
        assert np.allclose(completeness, np.eye(3), atol=1e-12)

    def test_mixture_lowering_is_trace_preserving(self):
        channel = single_qudit_depolarizing(3, 1e-3)
        kernel = channel_kernel(channel)
        # identity branch + 8 Paulis
        assert len(kernel.blocks) == 9
        stacked = [b.reshape(3, 3) for b in kernel.blocks]
        completeness = sum(op.conj().T @ op for op in stacked)
        assert np.allclose(completeness, np.eye(3), atol=1e-12)

    def test_two_qudit_mixture_kernel_shape(self):
        channel = two_qudit_depolarizing(3, 3, 1e-4)
        kernel = channel_kernel(channel)
        assert kernel.dims == (3, 3)
        assert len(kernel.blocks) == 81  # identity + 80 error terms
        assert kernel.blocks[0].shape == (3, 3, 3, 3)

    def test_channel_kernel_cached_per_instance(self):
        channel = amplitude_damping_channel(2, (0.25,))
        assert channel_kernel(channel) is channel_kernel(channel)

    def test_clear_resets_counts(self):
        gate_kernel(H.on(qubits(1)[0]))
        channel_kernel(single_qudit_depolarizing(2, 1e-3))
        permutation_kernel(CNOT.on(*qubits(2)))
        clear_kernel_caches()
        stats = kernel_cache_stats()
        assert stats == {
            "gate_kernels": 0,
            "channel_kernels": 0,
            "permutation_kernels": 0,
            "permutation_gathers": 0,
            "segment_gathers": 0,
        }


class TestPermutationKernels:
    def test_permutation_gate_lowers_to_table(self):
        a, b = qubits(2)
        kernel = permutation_kernel(CNOT.on(a, b))
        assert kernel.is_permutation
        assert kernel.dims == (2, 2)
        assert kernel.table.tolist() == [0, 1, 3, 2]
        assert kernel.weights.tolist() == [2, 1]

    def test_mixed_radix_weights(self):
        t, q = qutrits(1)[0], qubits(1, start=5)[0]
        from repro.gates.controlled import ControlledGate
        from repro.gates.qubit import X

        op = ControlledGate(X, (3,), (2,)).on(t, q)
        kernel = permutation_kernel(op)
        assert kernel.weights.tolist() == [2, 1]
        assert kernel.dims == (3, 2)
        # |2,0> -> |2,1> and |2,1> -> |2,0>; everything else fixed.
        assert kernel.table.tolist() == [0, 1, 2, 3, 5, 4]

    def test_non_permutation_gate_marked(self):
        kernel = permutation_kernel(H.on(qubits(1)[0]))
        assert not kernel.is_permutation
        assert kernel.table is None

    def test_cached_on_canonical_spec(self):
        a, b = qubits(2), qubits(2, start=7)
        first = permutation_kernel(CNOT.on(*a))
        second = permutation_kernel(CNOT.on(*b))
        assert first is second

    def test_table_is_read_only(self):
        kernel = permutation_kernel(CNOT.on(*qubits(2)))
        with pytest.raises(ValueError):
            kernel.table[0] = 3


class TestGatherCacheBound:
    """Both gather caches are LRUs capped at GATHER_CACHE_ENTRIES."""

    @staticmethod
    def _stream(count):
        """Distinct permutation circuits: one X (a single-op gather) and
        an X, CNOT run (a segment gather) per register shape."""
        a, b = qubits(2)
        for extra in range(2, count + 2):
            shape = (2, 2, extra)
            yield shape, [(X.on(a), (0,)), (CNOT.on(a, b), (0, 1))]

    def test_stream_of_distinct_circuits_stays_under_the_cap(self):
        clear_kernel_caches()
        for shape, steps in self._stream(GATHER_CACHE_ENTRIES + 30):
            permutation_gather(*steps[0], shape)
            segment_permutation_gather(steps, shape)
            stats = kernel_cache_stats()
            assert stats["permutation_gathers"] <= GATHER_CACHE_ENTRIES
            assert stats["segment_gathers"] <= GATHER_CACHE_ENTRIES
        stats = kernel_cache_stats()
        assert stats["segment_gathers"] == GATHER_CACHE_ENTRIES
        # X and CNOT gathers of every shape compete for one cache.
        assert stats["permutation_gathers"] == GATHER_CACHE_ENTRIES
        clear_kernel_caches()

    def test_hit_refreshes_recency(self, monkeypatch):
        from repro.sim import kernels

        clear_kernel_caches()
        monkeypatch.setattr(kernels._SEGMENT_GATHERS, "capacity", 3)
        cases = list(self._stream(4))
        first = [segment_permutation_gather(steps, shape)
                 for shape, steps in cases[:3]]
        # Touch the oldest entry, then overflow by one: the second
        # oldest is evicted, the touched one survives.
        assert segment_permutation_gather(cases[0][1], cases[0][0]) \
            is first[0]
        segment_permutation_gather(cases[3][1], cases[3][0])
        assert kernel_cache_stats()["segment_gathers"] == 3
        assert segment_permutation_gather(cases[0][1], cases[0][0]) \
            is first[0]
        rebuilt = segment_permutation_gather(cases[1][1], cases[1][0])
        assert rebuilt is not first[1]
        assert np.array_equal(rebuilt, first[1])
        clear_kernel_caches()

    def test_stats_keys_unchanged(self):
        assert set(kernel_cache_stats()) == {
            "gate_kernels",
            "channel_kernels",
            "permutation_kernels",
            "permutation_gathers",
            "segment_gathers",
        }


def test_gather_cache_under_concurrent_workers(monkeypatch):
    # More threads than cores share one small LRU: it must stay within
    # its cap and every lookup must return its own key's gather.
    import sys
    import threading

    from repro.sim import kernels

    clear_kernel_caches()
    monkeypatch.setattr(kernels._PERM_GATHERS, "capacity", 4)
    a = qubits(1)[0]
    shapes = [(2, extra) for extra in range(2, 12)]
    expected = {shape: permutation_gather(X.on(a), (0,), shape).copy()
                for shape in shapes}
    errors: list = []
    start = threading.Barrier(6)

    def work(seed):
        start.wait(timeout=10)
        for k in range(200):
            shape = shapes[(seed * 7 + k) % len(shapes)]
            gather = permutation_gather(X.on(a), (0,), shape)
            if not np.array_equal(gather, expected[shape]):
                errors.append(shape)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(kernels._PERM_GATHERS) == 4
    clear_kernel_caches()
