"""Property-based tests for the statevector-v2 engine.

The permutation fast path (segment-composed gathers) and the diagonal
multiply are pinned against the dense contraction oracle — the pre-v2
engine preserved as ``StateVectorSimulator(permutation_fast_path=False)``
— across random circuits, the Toffoli construction catalog, both
amplitude precisions, and circuits emerging from the optimizer and
router pipelines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.execution.pipeline_spec import PipelineSpec
from repro.gates.base import PhasedGate
from repro.gates.controlled import ControlledGate
from repro.gates.matrix import MatrixGate
from repro.gates.qutrit import (
    QUTRIT_H,
    X01,
    X02,
    X12,
    X_MINUS_1,
    X_PLUS_1,
    level_swap,
)
from repro.linalg import random_unitary
from repro.qudits import Qudit, qutrits
from repro.sim.kernels import (
    CONTROL,
    GatePlan,
    diagonal_factor,
    permutation_kernel,
)
from repro.sim.state import StateVector
from repro.sim.statevector import StateVectorSimulator
from repro.toffoli.registry import build_toffoli

PERMUTATION_GATES = [X01, X02, X12, X_PLUS_1, X_MINUS_1]

FAST = StateVectorSimulator()
DENSE = StateVectorSimulator(permutation_fast_path=False)


@st.composite
def random_circuits(draw, max_wires=4, max_ops=16, dense_gates=True):
    """Random qutrit circuits; permutation-only unless ``dense_gates``.

    With ``dense_gates`` the mix includes the (non-classical) qutrit
    Fourier gate, so the simulator's segment batching has to flush
    around genuinely dense kernels — the interleaving the fast path
    must survive.
    """
    num_wires = draw(st.integers(2, max_wires))
    wires = qutrits(num_wires)
    ops = []
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.integers(0, 2 if dense_gates else 1))
        if kind == 0:
            gate = draw(st.sampled_from(PERMUTATION_GATES))
            ops.append(gate.on(draw(st.sampled_from(wires))))
        elif kind == 1:
            gate = ControlledGate(
                draw(st.sampled_from(PERMUTATION_GATES)),
                (3,),
                (draw(st.integers(0, 2)),),
            )
            pair = draw(
                st.lists(
                    st.sampled_from(wires), min_size=2, max_size=2,
                    unique=True,
                )
            )
            ops.append(gate.on(*pair))
        else:
            ops.append(QUTRIT_H.on(draw(st.sampled_from(wires))))
    return Circuit(ops), wires


def run_both(circuit, wires, seed):
    initial = StateVector.random(wires, np.random.default_rng(seed))
    fast = FAST.run(circuit, initial)
    dense = DENSE.run(circuit, initial)
    return fast, dense


class TestFastPathParity:
    @given(random_circuits(dense_gates=False), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_permutation_circuits_agree_exactly(
        self, circuit_and_wires, seed
    ):
        # A permutation gather moves amplitudes by exact ones and
        # zeros: parity with the dense oracle is exact, not approximate.
        circuit, wires = circuit_and_wires
        fast, dense = run_both(circuit, wires, seed)
        assert np.array_equal(fast.vector, dense.vector)

    @given(random_circuits(dense_gates=True), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_mixed_circuits_agree(self, circuit_and_wires, seed):
        # Dense gates break the permutation segments; the flushed
        # prefix/suffix gathers must still compose with the dense
        # contraction to machine precision.
        circuit, wires = circuit_and_wires
        fast, dense = run_both(circuit, wires, seed)
        np.testing.assert_allclose(
            fast.vector, dense.vector, atol=1e-12, rtol=0
        )

    @pytest.mark.parametrize(
        "construction, kwargs",
        [
            ("qutrit_tree", {"decompose": False}),
            ("qubit_one_dirty", {}),
            ("he_tree", {}),
            ("wang_chain", {}),
            ("lanyon_target", {}),
        ],
    )
    def test_toffoli_catalog_parity(self, construction, kwargs):
        # The undecomposed catalog is permutation-heavy by design
        # (the paper's whole point); gathers and the dense contractions
        # both engines share agree exactly with the dense oracle on a
        # random input.  The T gates of the decomposed qubit
        # constructions run as a multiply, which agrees to rounding.
        result = build_toffoli(construction, 4, **kwargs)
        wires = result.circuit.all_qudits()
        fast, dense = run_both(
            result.circuit, wires, seed=20190608
        )
        multiplies = any(
            diagonal_factor(op, range(op.gate.num_qudits),
                            op.gate.num_qudits) is not None
            and not permutation_kernel(op).is_permutation
            for op in result.circuit.all_operations()
        )
        if multiplies:
            np.testing.assert_allclose(
                fast.vector, dense.vector, atol=1e-12, rtol=0
            )
        else:
            assert np.array_equal(fast.vector, dense.vector)


class TestPrecisionBounds:
    @given(random_circuits(dense_gates=True), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_complex64_within_documented_bound(
        self, circuit_and_wires, seed
    ):
        # docs/SIMULATORS.md documents the bulk-mode parity bound:
        # max |psi64 - psi128| <= operations * sqrt(dim) * 1e-7.
        circuit, wires = circuit_and_wires
        initial = StateVector.random(wires, np.random.default_rng(seed))
        exact = FAST.run(circuit, initial)
        bulk = StateVectorSimulator(dtype=np.complex64).run(
            circuit, initial
        )
        assert bulk.dtype == np.complex64
        bound = (
            circuit.num_operations
            * np.sqrt(exact.vector.size)
            * 1e-7
        )
        diff = np.abs(
            bulk.vector.astype(np.complex128) - exact.vector
        ).max()
        assert diff <= bound

    @given(random_circuits(dense_gates=False), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_complex64_permutations_are_rounding_free(
        self, circuit_and_wires, seed
    ):
        # The gather path never multiplies, so complex64 permutation
        # circuits lose no precision at all relative to their input.
        circuit, wires = circuit_and_wires
        initial = StateVector.random(
            wires, np.random.default_rng(seed)
        ).astype(np.complex64)
        bulk = FAST.run(circuit, initial)
        dense = DENSE.run(circuit, initial.astype(np.complex128))
        assert bulk.dtype == np.complex64
        assert np.array_equal(
            np.sort(np.abs(bulk.vector)),
            np.sort(np.abs(initial.vector)),
        )
        np.testing.assert_allclose(
            bulk.vector.astype(np.complex128),
            dense.vector,
            atol=1e-6,
            rtol=0,
        )


class TestPipelineComposition:
    @given(random_circuits(dense_gates=False), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_fast_path_agrees_on_optimized_circuits(
        self, circuit_and_wires, seed
    ):
        # The optimizer's rewrites (inverse cancellation, rotation
        # merging, ...) produce exactly the op mixes the segment
        # batching sees in production; parity must survive them.
        from repro.optimize.engine import optimize_circuit

        circuit, wires = circuit_and_wires
        optimized, _ = optimize_circuit(circuit)
        initial = StateVector.random(wires, np.random.default_rng(seed))
        fast = FAST.run(optimized, initial, wires=wires)
        dense = DENSE.run(circuit, initial)
        np.testing.assert_allclose(
            fast.vector, dense.vector, atol=1e-9, rtol=0
        )

    @given(random_circuits(dense_gates=False), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_fast_path_agrees_on_routed_circuits(
        self, circuit_and_wires, seed
    ):
        # Routing relabels wires onto device sites and inserts SWAPs
        # (themselves permutations); the routed circuit must evolve
        # site amplitudes exactly as the dense oracle does.
        from repro.arch.routing import route_circuit
        from repro.arch.topology import line

        circuit, wires = circuit_and_wires
        routed = route_circuit(circuit, line(len(wires)))
        site_wires = routed.circuit.all_qudits() or routed.sites
        fast, dense = run_both(routed.circuit, site_wires, seed)
        assert np.array_equal(fast.vector, dense.vector)


@st.composite
def controlled_gates(draw):
    """A random dense ControlledGate placed on a shuffled register.

    1-2 controls of dimension 2 or 3 with any activation values, a Haar
    unitary sub-gate on 1-2 wires of dimension 2 or 3, and up to one
    spectator wire; the register's axis order is a random permutation,
    so controls and targets land on any axes in any order.
    """
    control_dims = draw(st.lists(st.sampled_from((2, 3)), min_size=1,
                                 max_size=2))
    control_values = [draw(st.integers(0, d - 1)) for d in control_dims]
    target_dims = draw(st.lists(st.sampled_from((2, 3)), min_size=1,
                                max_size=2))
    spare_dims = draw(st.lists(st.sampled_from((2, 3)), max_size=1))
    sub_dim = int(np.prod(target_dims))
    unitary = random_unitary(
        sub_dim, np.random.default_rng(draw(st.integers(0, 2**16)))
    )
    gate = ControlledGate(
        MatrixGate(unitary, target_dims), control_dims, control_values
    )
    dims = control_dims + target_dims + spare_dims
    wires = [Qudit(index, dim) for index, dim in enumerate(dims)]
    order = draw(st.permutations(range(len(wires))))
    register = [wires[k] for k in order]
    return gate.on(*wires[: gate.num_qudits]), register


def _control_step(op, register):
    """Assert ``op`` plans as one control-block step on ``register``."""
    axes = [register.index(w) for w in op.qudits]
    plan = GatePlan([w.dimension for w in register])
    assert [step[0] for step in plan.moment([(op, axes)])] == [CONTROL]


class TestControlBlockParity:
    """A dense ControlledGate applied on its control block agrees with
    the dense contraction oracle (``apply_operation_dense``)."""

    @given(controlled_gates(), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_complex128_agrees_with_dense(self, op_and_register, seed):
        op, register = op_and_register
        _control_step(op, register)
        amplitudes = StateVector.random(
            register, np.random.default_rng(seed)
        ).tensor
        before = amplitudes.copy()
        # ``blocked`` wraps the caller's array: the in-place control
        # block must copy it first, never write through.
        blocked = StateVector(register, amplitudes)
        dense = StateVector(register, before.copy())
        blocked.apply_operation(op)
        dense.apply_operation_dense(op)
        np.testing.assert_allclose(
            blocked.vector, dense.vector, atol=1e-12, rtol=0
        )
        assert np.array_equal(amplitudes, before)

    @given(controlled_gates(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_complex64_within_documented_bound(self, op_and_register,
                                               seed):
        op, register = op_and_register
        _control_step(op, register)
        initial = StateVector.random(register, np.random.default_rng(seed))
        bulk = initial.astype(np.complex64)
        bulk.apply_operation(op)
        exact = initial.copy()
        exact.apply_operation_dense(op)
        assert bulk.dtype == np.complex64
        bound = np.sqrt(exact.vector.size) * 1e-7
        diff = np.abs(bulk.vector.astype(np.complex128) - exact.vector)
        assert diff.max() <= bound

    @pytest.mark.parametrize("num_controls", [4, 5, 6])
    def test_lowered_tree_from_basis_inputs_is_exact(self, num_controls):
        built = build_toffoli("qutrit_tree", num_controls)
        circuit = PipelineSpec.from_name("lowering").build() \
            .compile(built.circuit).circuit
        wires = circuit.all_qudits()
        assert any(
            isinstance(op.gate, ControlledGate)
            and not permutation_kernel(op).is_permutation
            for op in circuit.all_operations()
        )
        rng = np.random.default_rng(num_controls)
        for _ in range(4):
            values = [int(v) for v in rng.integers(0, 2, len(wires))]
            initial = StateVector.computational_basis(wires, values)
            fast = FAST.run(circuit, initial)
            dense = DENSE.run(circuit, initial)
            assert np.array_equal(fast.vector, dense.vector)


@st.composite
def diagonal_mix_circuits(draw, max_wires=4, max_ops=20):
    """Random circuits over mixed qubit/qutrit wires in which 1- and
    2-wire diagonal gates (phase gates, two-wire phase tensors and
    controlled phases) interleave with permutation and dense gates.

    Two-wire gates take their wires in a drawn order, so a gate's legs
    often run in descending register order.
    """
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=2,
                         max_size=max_wires))
    wires = [Qudit(index, dim) for index, dim in enumerate(dims)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def phases(size):
        return np.exp(1j * rng.uniform(0, 2 * np.pi, size))

    ops = []
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.sampled_from(
            ("phase", "phase2", "cphase", "swap", "cswap", "dense")))
        pair = draw(st.lists(st.sampled_from(wires), min_size=2,
                             max_size=2, unique=True))
        a, b = pair
        if kind == "phase":
            gate = PhasedGate(phases(a.dimension), (a.dimension,), "P")
            ops.append(gate.on(a))
        elif kind == "phase2":
            gate = PhasedGate(phases(a.dimension * b.dimension),
                              (a.dimension, b.dimension), "P2")
            ops.append(gate.on(a, b))
        elif kind == "cphase":
            sub = PhasedGate(phases(b.dimension), (b.dimension,), "P")
            value = draw(st.integers(0, a.dimension - 1))
            ops.append(ControlledGate(sub, (a.dimension,), (value,))
                       .on(a, b))
        elif kind == "swap":
            ops.append(level_swap(a.dimension, 0, 1).on(a))
        elif kind == "cswap":
            ops.append(ControlledGate(level_swap(b.dimension, 0, 1),
                                      (a.dimension,), (1,)).on(a, b))
        else:
            unitary = random_unitary(a.dimension, rng)
            ops.append(MatrixGate(unitary, (a.dimension,)).on(a))
    return Circuit(ops), wires


class TestDiagonalParity:
    """Diagonal gates run as one multiply (``diagonal_factor``) and agree
    with the dense contraction oracle (``apply_operation_dense``)."""

    @given(diagonal_mix_circuits(), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_complex128_agrees_with_dense(self, circuit_and_wires, seed):
        circuit, wires = circuit_and_wires
        fast, dense = run_both(circuit, wires, seed)
        np.testing.assert_allclose(
            fast.vector, dense.vector, atol=1e-12, rtol=0
        )

    @given(diagonal_mix_circuits(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_complex64_within_documented_bound(
        self, circuit_and_wires, seed
    ):
        circuit, wires = circuit_and_wires
        initial = StateVector.random(wires, np.random.default_rng(seed))
        exact = DENSE.run(circuit, initial)
        bulk = StateVectorSimulator(dtype=np.complex64).run(
            circuit, initial
        )
        assert bulk.dtype == np.complex64
        bound = (
            circuit.num_operations * np.sqrt(exact.vector.size) * 1e-7
        )
        diff = np.abs(bulk.vector.astype(np.complex128) - exact.vector)
        assert diff.max() <= bound

    @given(diagonal_mix_circuits(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_one_op_at_a_time_agrees_with_dense(
        self, circuit_and_wires, seed
    ):
        # apply_operation takes the same multiply, op by op, and a
        # diagonal gate never writes through to the caller's array.
        circuit, wires = circuit_and_wires
        amplitudes = StateVector.random(
            wires, np.random.default_rng(seed)
        ).tensor
        before = amplitudes.copy()
        stepped = StateVector(wires, amplitudes)
        dense = StateVector(wires, before.copy())
        for op in circuit.all_operations():
            stepped.apply_operation(op)
            dense.apply_operation_dense(op)
        np.testing.assert_allclose(
            stepped.vector, dense.vector, atol=1e-12, rtol=0
        )
        assert np.array_equal(amplitudes, before)

    @given(diagonal_mix_circuits())
    @settings(max_examples=30, deadline=None)
    def test_diagonal_verdicts(self, circuit_and_wires):
        # Exactly the phase gates and controlled phases multiply.
        circuit, wires = circuit_and_wires
        for op in circuit.all_operations():
            axes = [wires.index(w) for w in op.qudits]
            factor = diagonal_factor(op, axes, len(wires))
            sub = getattr(op.gate, "sub_gate", op.gate)
            assert (factor is not None) == isinstance(sub, PhasedGate)
