"""Tests for the noise-free state-vector simulator."""

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.gates.qubit import CNOT, H
from repro.gates.qutrit import QUTRIT_H, X_PLUS_1
from repro.qudits import Qudit, qubits, qutrits
from repro.sim.state import StateVector


class TestRun:
    def test_bell_state(self, state_sim):
        a, b = qubits(2)
        circuit = Circuit([H.on(a), CNOT.on(a, b)])
        state = state_sim.run(circuit)
        assert np.isclose(state.probability_of((0, 0)), 0.5)
        assert np.isclose(state.probability_of((1, 1)), 0.5)
        assert np.isclose(state.probability_of((0, 1)), 0.0)

    def test_run_from_custom_initial_state(self, state_sim):
        a, b = qubits(2)
        circuit = Circuit([CNOT.on(a, b)])
        initial = StateVector.computational_basis([a, b], (1, 1))
        state = state_sim.run(circuit, initial)
        assert state.probability_of((1, 0)) == 1.0

    def test_initial_state_is_not_mutated(self, state_sim):
        a = Qudit(0, 2)
        circuit = Circuit([H.on(a)])
        initial = StateVector.zero([a])
        state_sim.run(circuit, initial)
        assert initial.probability_of((0,)) == 1.0

    def test_run_basis_shortcut(self, state_sim):
        a, b = qutrits(2)
        circuit = Circuit([X_PLUS_1.on(b)])
        state = state_sim.run_basis(circuit, [a, b], (1, 2))
        assert state.probability_of((1, 0)) == 1.0

    def test_wires_superset_of_circuit(self, state_sim):
        a, b, c = qubits(3)
        circuit = Circuit([CNOT.on(a, b)])
        state = state_sim.run(circuit, wires=[a, b, c])
        assert state.probability_of((0, 0, 0)) == 1.0

    def test_missing_wires_rejected(self, state_sim):
        a, b = qubits(2)
        circuit = Circuit([CNOT.on(a, b)])
        initial = StateVector.zero([a])
        with pytest.raises(ValueError):
            state_sim.run(circuit, initial)

    def test_qutrit_fourier_uniform(self, state_sim):
        a = qutrits(1)[0]
        circuit = Circuit([QUTRIT_H.on(a)])
        state = state_sim.run(circuit)
        for level in range(3):
            assert np.isclose(state.probability_of((level,)), 1 / 3)

    def test_empty_circuit_is_identity(self, state_sim):
        wires = qutrits(2)
        initial = StateVector.computational_basis(wires, (2, 1))
        state = state_sim.run(Circuit([]), initial)
        assert state.probability_of((2, 1)) == 1.0
        state = state_sim.run(Circuit([]), wires=wires)
        assert state.probability_of((0, 0)) == 1.0

    def test_single_wire_register(self, state_sim):
        a = qutrits(1)[0]
        state = state_sim.run(Circuit([X_PLUS_1.on(a)]))
        assert state.wires == [a]
        assert state.probability_of((1,)) == 1.0

    def test_initial_state_may_cover_extra_wires(self, state_sim):
        a, b, c = qubits(3)
        circuit = Circuit([CNOT.on(a, b)])
        initial = StateVector.computational_basis([a, b, c], (1, 0, 1))
        state = state_sim.run(circuit, initial)
        assert state.probability_of((1, 1, 1)) == 1.0


class TestRegisterOwnership:
    """A run copies the caller's register once and writes in place after."""

    @pytest.mark.parametrize("leading_gather", [False, True])
    @pytest.mark.parametrize("given_initial", [False, True])
    def test_run_copies_the_register_once(
        self, monkeypatch, rng, given_initial, leading_gather
    ):
        from repro.gates.controlled import ControlledGate
        from repro.gates.qubit import T, X
        from repro.sim.statevector import StateVectorSimulator

        a, b = qubits(2)
        t = qutrits(1, start=2)[0]
        circuit = Circuit(
            ([X.on(a), CNOT.on(a, b)] if leading_gather else [])
            + [
                ControlledGate(H, (2,)).on(a, b),
                T.on(b),
                ControlledGate(QUTRIT_H, (2,)).on(b, t),
            ]
        )
        initial = (
            StateVector.random([a, b, t], rng) if given_initial else None
        )
        expected = StateVectorSimulator(permutation_fast_path=False).run(
            circuit, initial, wires=[a, b, t]
        )
        from repro.sim import kernels
        from repro.sim import state as state_module

        copies, in_place = [], []
        private = StateVector._private

        def count_copy(self, tensor):
            copies.append(tensor)
            return private(self, tensor)

        def stepwise(tensor, steps, lead=0):
            for step in steps:
                before = tensor
                tensor = kernels.apply_steps(tensor, [step], lead)
                if step[0] in kernels.IN_PLACE:
                    in_place.append(tensor is before)
            return tensor

        monkeypatch.setattr(StateVector, "_private", count_copy)
        monkeypatch.setattr(state_module, "apply_steps", stepwise)
        state = StateVectorSimulator().run(circuit, initial, wires=[a, b, t])
        # One copy of a given initial state (none of a fresh |0...0>);
        # every control-block write and diagonal multiply lands in the
        # register the run owns, also right after a gather.
        assert len(copies) == (1 if given_initial else 0)
        assert in_place and all(in_place)
        assert np.allclose(state.vector, expected.vector, atol=1e-12)


    @pytest.mark.parametrize("given", ["none", "values", "state"])
    def test_backend_builds_one_register_per_request(
        self, monkeypatch, given
    ):
        # None runs from |0...0> over the wires, basis values build
        # their basis register, a state is copied once by the run; the
        # run then evolves that one register.
        from repro.execution.backends import StateVectorBackend

        circuit, wires = TestWideRegisters._tree(4)
        values = (1,) * 4 + (0,)
        initial = {
            "none": None,
            "values": values,
            "state": StateVector.computational_basis(wires, values),
        }[given]
        built = []
        construct = StateVector.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(StateVector, "__init__", spy)
        result = StateVectorBackend().run(
            circuit, wires=wires, initial=initial
        )
        assert len(built) == 1
        expected = (1,) * 5 if given != "none" else (0,) * 5
        assert np.isclose(result.state.probability_of(expected), 1.0)

    @pytest.mark.parametrize("given_state", [False, True])
    def test_run_keeps_no_input_register_alive(self, given_state):
        # The run hands its register to the plan's steps: each gather
        # frees the array it replaced, so the traced peak stays near two
        # registers.  A run that kept its input alive peaks near three.
        import tracemalloc

        from repro.sim.statevector import StateVectorSimulator

        circuit, wires = TestWideRegisters._tree(8)
        values = (1,) * 8 + (0,)
        initial = StateVector.computational_basis(wires, values)
        simulator = StateVectorSimulator()
        run = (
            (lambda: simulator.run(circuit, initial)) if given_state
            else (lambda: simulator.run_basis(circuit, wires, values))
        )
        run()  # builds and caches the gathers
        tracemalloc.start()
        try:
            state = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isclose(state.probability_of((1,) * 9), 1.0)
        assert peak < 2.5 * initial.vector.nbytes


class TestEngineKnobs:
    """The v2 constructor knobs: dtype and the permutation fast path."""

    def test_default_knobs(self):
        from repro.sim.statevector import StateVectorSimulator

        sim = StateVectorSimulator()
        assert sim.dtype is None
        assert sim.permutation_fast_path

    def test_dtype_forces_complex64(self):
        from repro.sim.statevector import StateVectorSimulator

        a, b = qubits(2)
        circuit = Circuit([H.on(a), CNOT.on(a, b)])
        sim = StateVectorSimulator(dtype=np.complex64)
        assert sim.dtype == np.complex64
        state = sim.run(circuit)
        assert state.dtype == np.complex64
        # An explicit complex128 initial state is converted, not
        # mutated.
        initial = StateVector.zero([a, b])
        state = sim.run(circuit, initial)
        assert state.dtype == np.complex64
        assert initial.dtype == np.complex128

    def test_default_dtype_follows_initial_state(self, state_sim):
        a = qubits(1)[0]
        initial = StateVector.zero([a]).astype(np.complex64)
        state = state_sim.run(Circuit([H.on(a)]), initial)
        assert state.dtype == np.complex64

    def test_dense_oracle_matches_fast_path(self, rng):
        from repro.sim.statevector import StateVectorSimulator
        from repro.toffoli.registry import build_toffoli

        result = build_toffoli("qutrit_tree", 4, decompose=False)
        wires = result.circuit.all_qudits()
        initial = StateVector.random(wires, rng)
        dense_sim = StateVectorSimulator(permutation_fast_path=False)
        assert not dense_sim.permutation_fast_path
        fast = StateVectorSimulator().run(result.circuit, initial)
        dense = dense_sim.run(result.circuit, initial)
        # Permutation gathers move amplitudes without arithmetic, so
        # parity with the dense contraction is exact.
        assert np.array_equal(fast.vector, dense.vector)


class TestKernelCacheRouting:
    """apply_operation lowers each canonical gate once, process-wide:
    permutation gates land in the permutation-table cache (the v2 fast
    path), everything else in the dense gate-kernel cache."""

    def test_repeated_gate_lowers_once(self, state_sim):
        from repro.sim.kernels import clear_kernel_caches, kernel_cache_stats

        clear_kernel_caches()
        a, b, c = qubits(3)
        circuit = Circuit(
            [H.on(a), CNOT.on(a, b), H.on(b), CNOT.on(b, c), H.on(c)]
        )
        state_sim.run(circuit)
        # Five operations, two distinct canonical gates.  CNOT is a
        # permutation, so it lowers to a table and never enters the
        # dense cache; H gets the dense kernel plus a cached negative
        # permutation verdict.
        stats = kernel_cache_stats()
        assert stats["gate_kernels"] == 1
        assert stats["permutation_kernels"] == 2

    def test_unitary_not_recomputed_on_cache_hit(self, state_sim):
        from repro.gates.matrix import MatrixGate
        from repro.sim.kernels import clear_kernel_caches

        clear_kernel_caches()

        calls = 0

        class CountingGate(MatrixGate):
            def unitary(self):
                nonlocal calls
                calls += 1
                return super().unitary()

        gate = CountingGate(H.unitary(), (2,), name="counting-h")
        a = qubits(1)[0]
        circuit = Circuit([gate.on(a), gate.on(a), gate.on(a)])
        state = state_sim.run(circuit)
        # Once for the (cached, negative) permutation check, once to
        # build the dense kernel — O(1) per canonical spec, never per
        # application.
        assert calls == 2
        # Three H's = one H worth of amplitudes.
        assert np.isclose(state.probability_of((0,)), 0.5)

    def test_cached_apply_matches_apply_matrix(self, state_sim, rng):
        a, b = qutrits(2)
        reference = StateVector.random([a, b], rng)
        via_kernel = reference.copy()
        via_matrix = reference.copy()
        op = X_PLUS_1.on(b)
        via_kernel.apply_operation(op)
        via_matrix.apply_matrix(op.unitary(), op.qudits)
        assert np.allclose(via_kernel.tensor, via_matrix.tensor)


class TestWideRegisters:
    """Above ``kernels._GATHER_MAX_ENTRIES`` amplitudes no gather is
    cached: the run loop applies each gate on its own control block or
    kernel, and a direct gather call builds its map without keeping it."""

    @staticmethod
    def _tree(num_controls):
        from repro.execution.pipeline_spec import PipelineSpec
        from repro.toffoli.registry import build_toffoli

        built = build_toffoli("qutrit_tree", num_controls)
        lowered = PipelineSpec.from_name("lowering").build().compile(
            built.circuit
        ).circuit
        return lowered, list(built.all_wires)

    @staticmethod
    def _parity(circuit, wires, values):
        from repro.sim.kernels import clear_kernel_caches, kernel_cache_stats
        from repro.sim.statevector import StateVectorSimulator

        clear_kernel_caches()
        # A given initial state runs on the register's GatePlan from the
        # first moment (basis values may start on the support).
        initial = StateVector.computational_basis(wires, values)
        fast = StateVectorSimulator().run(circuit, initial)
        stats = kernel_cache_stats()
        assert stats["permutation_gathers"] == 0
        assert stats["segment_gathers"] == 0
        dense = StateVectorSimulator(permutation_fast_path=False).run_basis(
            circuit, wires, values
        )
        assert np.array_equal(fast.tensor, dense.tensor)
        return fast

    def test_bound_applies_to_the_run_loop(self, monkeypatch):
        from repro.sim import kernels

        circuit, wires = self._tree(4)
        monkeypatch.setattr(kernels, "_GATHER_MAX_ENTRIES", 3 ** 4)
        state = self._parity(circuit, wires, (1, 1, 1, 1, 0))
        assert np.isclose(state.probability_of((1, 1, 1, 1, 1)), 1.0)
        kernels.clear_kernel_caches()

    def test_direct_gathers_are_built_not_cached(self, monkeypatch):
        from repro.sim import kernels

        a, b = qubits(2)
        steps = [(CNOT.on(a, b), (0, 1)), (CNOT.on(b, a), (1, 0))]
        shape = (2, 2, 3)
        kernels.clear_kernel_caches()
        cached = [kernels.permutation_gather(*steps[0], shape).copy(),
                  kernels.segment_permutation_gather(steps, shape).copy()]
        monkeypatch.setattr(kernels, "_GATHER_MAX_ENTRIES", 11)
        kernels.clear_kernel_caches()
        built = [kernels.permutation_gather(*steps[0], shape),
                 kernels.segment_permutation_gather(steps, shape)]
        stats = kernels.kernel_cache_stats()
        assert stats["permutation_gathers"] == stats["segment_gathers"] == 0
        for fresh, kept in zip(built, cached):
            assert np.array_equal(fresh, kept)

    @pytest.mark.slow
    def test_paper_scale_tree_caches_no_gather(self):
        # 13 qutrits, 3^13 amplitudes: one cached gather would be 12.8 MB.
        circuit, wires = self._tree(12)
        state = self._parity(circuit, wires, (1,) * 12 + (0,))
        assert np.isclose(state.probability_of((1,) * 13), 1.0)

    @pytest.mark.slow
    def test_paper_scale_tree_runs_on_the_support(self):
        # The same run from basis values walks the support to the end;
        # it agrees with the dense oracle to rounding, not bitwise.
        from repro.sim.kernels import clear_kernel_caches, kernel_cache_stats
        from repro.sim.statevector import StateVectorSimulator

        circuit, wires = self._tree(12)
        values = (1,) * 12 + (0,)
        clear_kernel_caches()
        walk = StateVectorSimulator().run_basis(circuit, wires, values)
        stats = kernel_cache_stats()
        assert stats["permutation_gathers"] == stats["segment_gathers"] == 0
        assert stats["column_kernels"] > 0
        dense = StateVectorSimulator(permutation_fast_path=False).run_basis(
            circuit, wires, values
        )
        assert np.abs(walk.vector - dense.vector).max() <= 1e-12
        assert np.isclose(walk.probability_of((1,) * 13), 1.0)
