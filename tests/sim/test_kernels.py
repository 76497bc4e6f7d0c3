"""Kernel caches: correctness of the lowered blocks and cache identity."""

import numpy as np
import pytest

from repro.gates.controlled import ControlledGate
from repro.gates.matrix import MatrixGate
from repro.gates.qubit import CNOT, H, T, X
from repro.gates.qutrit import X_PLUS_1
from repro.noise.damping import amplitude_damping_channel
from repro.noise.depolarizing import (
    single_qudit_depolarizing,
    two_qudit_depolarizing,
)
from repro.qudits import qubits, qutrits
from repro.sim.kernels import (
    GATHER_CACHE_ENTRIES,
    GatePlan,
    channel_kernel,
    clear_kernel_caches,
    column_kernel,
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

    def test_diagonal_verdict_read_off_the_kernel_matrix(self):
        a = qubits(1)[0]
        kernel = gate_kernel(T.on(a))
        np.testing.assert_array_equal(
            kernel.phases, np.diagonal(T.unitary())
        )
        assert not kernel.phases.flags.writeable
        assert gate_kernel(T.on(a), np.complex64).phases.dtype == (
            np.complex64
        )
        assert gate_kernel(H.on(a)).phases is None
        # A stray entry off the diagonal keeps the contraction.
        almost = np.diag([1.0, 1j]).astype(complex)
        almost[0, 1] = 1e-17
        gate = MatrixGate(almost, (2,), name="almost-s")
        assert gate_kernel(gate.on(a)).phases is None

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
        controlled_h = ControlledGate(H, (2,)).on(*qubits(2))
        GatePlan((2, 2)).moment([(controlled_h, [0, 1])])
        assert kernel_cache_stats()["control_blocks"] == 1
        column_kernel(controlled_h)
        assert kernel_cache_stats()["column_kernels"] == 1
        clear_kernel_caches()
        stats = kernel_cache_stats()
        assert stats == {
            "gate_kernels": 0,
            "control_blocks": 0,
            "channel_kernels": 0,
            "permutation_kernels": 0,
            "column_kernels": 0,
            "permutation_gathers": 0,
            "segment_gathers": 0,
            "interned_gates": 0,
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
            "control_blocks",
            "channel_kernels",
            "permutation_kernels",
            "column_kernels",
            "permutation_gathers",
            "segment_gathers",
            "interned_gates",
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


def _scratch_gather(op, axes, shape):
    """``op``'s full-register gather from its permutation table alone:
    decode every joint index's digits, route the touched ones through
    the inverse of ``op.gate.permutation()``, re-encode."""
    table = np.asarray(op.gate.permutation())
    inverse = np.argsort(table)
    dims = [shape[a] for a in axes]
    index = np.arange(int(np.prod(shape)))
    digits = np.stack(np.unravel_index(index, shape))
    touched = np.ravel_multi_index(digits[list(axes)], dims)
    digits[list(axes)] = np.stack(np.unravel_index(inverse[touched], dims))
    return np.ravel_multi_index(digits, shape)


def _scratch_composition(steps, shape):
    """A segment's gather composed step by step from freshly built
    per-step gathers: the reference no kernel cache can touch."""
    total = None
    for op, axes in steps:
        step = _scratch_gather(op, axes, shape)
        total = step if total is None else total[step]
    return total


def _permutation_steps(rng, dims, count):
    """``count`` random permutation ops over a register of ``dims``, on
    one or two axes in either order, qubit and qutrit gates alike."""
    from repro.gates.qutrit import level_swap
    from repro.qudits import Qudit

    wires = [Qudit(k, d) for k, d in enumerate(dims)]
    singles = {2: [X], 3: [X_PLUS_1, level_swap(3, 0, 2)]}
    pairs = {
        (2, 2): CNOT,
        (3, 2): ControlledGate(X, (3,), (2,)),
        (2, 3): ControlledGate(X_PLUS_1, (2,), (1,)),
        (3, 3): ControlledGate(X_PLUS_1, (3,), (2,)),
    }
    steps = []
    for _ in range(count):
        if rng.random() < 0.4:
            axis = int(rng.integers(len(dims)))
            options = singles[dims[axis]]
            gate = options[int(rng.integers(len(options)))]
            steps.append((gate.on(wires[axis]), (axis,)))
        else:
            axes = tuple(int(a) for a in rng.choice(len(dims), 2, replace=False))
            gate = pairs[(dims[axes[0]], dims[axes[1]])]
            steps.append((gate.on(*(wires[a] for a in axes)), axes))
    return steps


class TestSegmentComposition:
    """A segment that misses the composed cache reuses its steps'
    per-placement gathers and changes no cache but its own."""

    SHAPE = (2, 3, 2)

    def _steps(self):
        from repro.qudits import Qudit

        a, t, b = (Qudit(k, d) for k, d in enumerate(self.SHAPE))
        return [
            (X.on(a), (0,)),
            (ControlledGate(X, (3,), (2,)).on(t, b), (1, 2)),
            (X_PLUS_1.on(t), (1,)),
            (CNOT.on(b, a), (2, 0)),
        ]

    def test_cached_steps_compose_without_building(self, monkeypatch):
        from repro.sim import kernels

        clear_kernel_caches()
        steps = self._steps()
        expected = _scratch_composition(steps, self.SHAPE)
        for op, axes in steps:
            permutation_gather(op, axes, self.SHAPE)
        order = list(kernels._PERM_GATHERS._entries)

        def no_build(*args):
            raise AssertionError("a cached step was rebuilt")

        monkeypatch.setattr(kernels, "_build_permutation_gather", no_build)
        gather = segment_permutation_gather(steps, self.SHAPE)
        assert np.array_equal(gather, expected)
        assert not gather.flags.writeable
        # Read without a recency refresh: same entries, same order.
        assert list(kernels._PERM_GATHERS._entries) == order
        assert kernel_cache_stats()["segment_gathers"] == 1
        clear_kernel_caches()

    def test_missing_step_is_built_and_not_kept(self, monkeypatch):
        from repro.sim import kernels

        clear_kernel_caches()
        steps = self._steps()
        expected = _scratch_composition(steps, self.SHAPE)
        for op, axes in steps[:2]:
            permutation_gather(op, axes, self.SHAPE)
        before = list(kernels._PERM_GATHERS._entries)
        built = []
        original = kernels._build_permutation_gather

        def spy(op, axes, shape):
            built.append(tuple(axes))
            return original(op, axes, shape)

        monkeypatch.setattr(kernels, "_build_permutation_gather", spy)
        gather = segment_permutation_gather(steps, self.SHAPE)
        assert np.array_equal(gather, expected)
        assert built == [(1,), (2, 0)]
        assert list(kernels._PERM_GATHERS._entries) == before
        # The composed map is cached; a repeat builds nothing.
        assert segment_permutation_gather(steps, self.SHAPE) is gather
        assert built == [(1,), (2, 0)]
        clear_kernel_caches()

    def test_random_segments_match_scratch_composition(self):
        from repro.qudits import Qudit
        from repro.sim.state import StateVector

        rng = np.random.default_rng(24)
        for trial in range(40):
            clear_kernel_caches()
            dims = tuple(int(d) for d in rng.choice((2, 3), rng.integers(2, 6)))
            steps = _permutation_steps(rng, dims, int(rng.integers(2, 9)))
            # None, some or all of the steps have a cached gather.
            for op, axes in steps:
                if rng.random() < trial % 3 / 2:
                    permutation_gather(op, axes, dims)
            gather = segment_permutation_gather(steps, dims)
            assert np.array_equal(gather, _scratch_composition(steps, dims))
            # ...and it is the circuit: one gather equals the steps'
            # dense contractions, exactly (permutations are exact).
            state = StateVector.random(
                [Qudit(k, d) for k, d in enumerate(dims)], rng
            )
            flat = state.vector.copy()
            for op, _ in steps:
                state.apply_operation_dense(op)
            assert np.array_equal(flat[gather], state.vector)
            for op, axes in steps:
                assert np.array_equal(
                    permutation_gather(op, axes, dims),
                    _scratch_gather(op, axes, dims),
                )
        clear_kernel_caches()

    def test_wide_registers_still_cache_nothing(self, monkeypatch):
        from repro.sim import kernels

        clear_kernel_caches()
        monkeypatch.setattr(kernels, "_GATHER_MAX_ENTRIES", 8)
        steps = self._steps()
        for op, axes in steps:
            permutation_gather(op, axes, self.SHAPE)
        gather = segment_permutation_gather(steps, self.SHAPE)
        assert np.array_equal(
            gather, _scratch_composition(steps, self.SHAPE)
        )
        stats = kernel_cache_stats()
        assert stats["permutation_gathers"] == stats["segment_gathers"] == 0
        clear_kernel_caches()

    def test_sim_heavy_like_sequence_keeps_both_caches(self, monkeypatch):
        """The same requests twice, with and without the per-placement
        reuse (every missed step built, as before it): both gather caches
        end with the same keys in the same order, and every result
        matches."""
        from repro import execute
        from repro.execution.pipeline_spec import PipelineSpec
        from repro.noise import SC
        from repro.sim import kernels

        lowering = PipelineSpec.from_name("lowering")

        def sequence():
            results = []
            for _ in range(2):
                for inputs in ((1,) * 6 + (0,), (1, 0) * 3 + (1,)):
                    results.append(execute(
                        "qutrit_tree", num_controls=6, pipeline=lowering,
                        initial=inputs, shots=50, seed=3,
                    ).measurements.counts())
                for name, trials in (("qutrit_tree", 4),
                                     ("qubit_ancilla_free", 2)):
                    results.append(execute(
                        name, num_controls=4, backend="trajectory",
                        noise_model=SC, trials=trials, seed=5,
                    ).mean_fidelity)
            return results, (
                list(kernels._PERM_GATHERS._entries),
                list(kernels._SEGMENT_GATHERS._entries),
            )

        clear_kernel_caches()
        results, entries = sequence()
        assert entries[0] and entries[1]
        clear_kernel_caches()
        monkeypatch.setattr(kernels._PERM_GATHERS, "peek", lambda key: None)
        assert sequence() == (results, entries)
        clear_kernel_caches()
