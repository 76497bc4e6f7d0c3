"""Property-based tests for the qubit<->qutrit interop layer.

The headline invariants: lowering inverts lifting exactly, lifted
circuits act identically on the qubit subspace (checked classically for
permutation circuits and by statevector otherwise), mixed-dimension
controlled gates agree across all four engines, and EmbeddedGate
circuits plus PipelineSpecs survive serialization with stable
fingerprints.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.execution import PipelineSpec, PipelineStage, execute
from repro.execution.cache import circuit_fingerprint
from repro.gates.base import PermutationGate
from repro.gates.controlled import ControlledGate
from repro.gates.embedded import EmbeddedGate
from repro.gates.qubit import CNOT, CZ, H, S, SWAP, T, TOFFOLI, X
from repro.gates.qutrit import shift_gate
from repro.interop import lift_circuit, lower_circuit
from repro.noise.model import NoiseModel
from repro.qudits import Qudit
from repro.sim.classical import ClassicalSimulator
from repro.verify import assert_equivalent

NOISELESS = NoiseModel("clean", 0.0, 0.0, 1e-7, 3e-7, t1=None)

_ONE_QUBIT = (H, S, T, X)
_TWO_QUBIT = (CNOT, CZ, SWAP)
_CLASSICAL_ONE = (X,)
_CLASSICAL_TWO = (CNOT, SWAP)


@st.composite
def qubit_circuits(draw, classical=False):
    """A random qubit circuit on 2-4 wires, optionally permutation-only."""
    width = draw(st.integers(2, 4))
    wires = [Qudit(i, 2) for i in range(width)]
    one = _CLASSICAL_ONE if classical else _ONE_QUBIT
    two = _CLASSICAL_TWO if classical else _TWO_QUBIT
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 2 if width >= 3 else 1))
        if kind == 0:
            gate = draw(st.sampled_from(one))
            ops.append(gate.on(draw(st.sampled_from(wires))))
        elif kind == 1:
            gate = draw(st.sampled_from(two))
            a, b = draw(
                st.permutations(wires).map(lambda p: p[:2])
            )
            ops.append(gate.on(a, b))
        else:
            a, b, c = draw(
                st.permutations(wires).map(lambda p: p[:3])
            )
            ops.append(TOFFOLI.on(a, b, c))
    return Circuit(ops)


class TestLiftLowerIdentity:
    @settings(max_examples=40, deadline=None)
    @given(qubit_circuits())
    def test_lower_inverts_lift(self, circuit):
        assert lower_circuit(lift_circuit(circuit)) == circuit

    @settings(max_examples=20, deadline=None)
    @given(qubit_circuits(), st.integers(3, 5))
    def test_lower_inverts_lift_any_dimension(self, circuit, dim):
        assert lower_circuit(lift_circuit(circuit, dim=dim)) == circuit


class TestSubspaceParity:
    @settings(max_examples=25, deadline=None)
    @given(qubit_circuits())
    def test_lift_preserves_subspace_action(self, circuit):
        assert_equivalent(lift_circuit(circuit), circuit)


class TestPermutationVectorEquality:
    @settings(max_examples=25, deadline=None)
    @given(qubit_circuits(classical=True))
    def test_lifted_classical_action_matches(self, circuit):
        lifted = lift_circuit(circuit)
        wires = circuit.all_qudits()
        lifted_wires = lifted.all_qudits()
        simulator = ClassicalSimulator()
        inputs = simulator.input_space(wires)
        original = simulator.run_array(circuit, wires, inputs)
        promoted = simulator.run_array(lifted, lifted_wires, inputs)
        assert np.array_equal(original, promoted)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(range(2)), st.integers(3, 6))
    def test_embedded_permutation_extends_with_fixed_points(
        self, mapping, dim
    ):
        gate = PermutationGate(list(mapping), (2,), "p")
        table = EmbeddedGate(gate, (dim,)).permutation()
        assert list(table[:2]) == list(mapping)
        assert list(table[2:]) == list(range(2, dim))


class TestMixedDimensionControlParity:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(2, 4),
        st.data(),
    )
    def test_four_engines_agree(self, control_dim, target_dim, data):
        control_value = data.draw(st.integers(0, control_dim - 1))
        prepared = data.draw(st.integers(0, control_dim - 1))
        shift = data.draw(st.integers(1, target_dim - 1))
        control = Qudit(0, control_dim)
        target = Qudit(1, target_dim)
        circuit = Circuit(
            [
                shift_gate(control_dim, prepared).on(control),
                ControlledGate(
                    shift_gate(target_dim, shift),
                    (control_dim,),
                    (control_value,),
                ).on(control, target),
            ]
        )
        wires = [control, target]
        expected_target = shift if prepared == control_value else 0
        classical = execute(circuit, backend="classical", wires=wires)
        assert classical.values == (prepared, expected_target)
        statevector = execute(
            circuit, backend="statevector", wires=wires
        )
        assert np.isclose(
            statevector.probability_of(classical.values), 1.0, atol=1e-9
        )
        density = execute(
            circuit,
            backend="density",
            noise_model=NOISELESS,
            wires=wires,
        )
        assert np.isclose(
            density.probability_of(classical.values), 1.0, atol=1e-9
        )
        trajectory = execute(
            circuit,
            backend="trajectory",
            noise_model=NOISELESS,
            wires=wires,
            trials=3,
            seed=11,
        )
        assert np.isclose(trajectory.mean_fidelity, 1.0, atol=1e-6)


class TestSerializationRoundTrips:
    @settings(max_examples=25, deadline=None)
    @given(qubit_circuits())
    def test_lifted_circuit_json_and_fingerprint(self, circuit):
        lifted = lift_circuit(circuit)
        rebuilt = Circuit.from_json(lifted.to_json())
        assert rebuilt == lifted
        assert circuit_fingerprint(rebuilt) == circuit_fingerprint(lifted)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.builds(
                    lambda d: PipelineStage("lift", {"dim": d}),
                    st.integers(3, 5),
                ),
                st.builds(
                    lambda b: PipelineStage("decompose", {"basis": b}),
                    st.sampled_from(["width2", "qubit"]),
                ),
                st.builds(
                    lambda label: PipelineStage(
                        "optimize", {"label": label}
                    ),
                    st.text(
                        alphabet="abcdefgh", min_size=1, max_size=6
                    ),
                ),
                st.builds(
                    lambda t: PipelineStage("route", {"topology": t}),
                    st.sampled_from(["line", "grid_2d", "heavy_hex"]),
                ),
                st.builds(
                    lambda v: PipelineStage("lower", {"verify": v}),
                    st.booleans(),
                ),
                st.builds(
                    lambda m: PipelineStage("schedule", {"mode": m}),
                    st.sampled_from(["merge", "asap"]),
                ),
            ),
            max_size=6,
        )
    )
    def test_pipeline_spec_round_trip(self, stages):
        spec = PipelineSpec("fuzz", tuple(stages))
        rebuilt = PipelineSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert hash(rebuilt) == hash(spec)
        assert rebuilt.build().pass_names == spec.build().pass_names
