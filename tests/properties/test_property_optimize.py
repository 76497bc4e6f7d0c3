"""Property-based tests for the optimizer composed with the routers.

Two invariants, extending PR 5's routing property suite:

* every rewrite pass (alone and in the default stack) preserves the
  circuit's full classical action (PR 4's ``permutation_vector``) and,
  on non-classical circuits, statevector equivalence — across the full
  Toffoli catalog;
* optimizer-then-router and router-then-optimizer both preserve the
  placement-conjugated structural equivalence on every topology-zoo
  member, so the ``hardware-*-opt`` pipelines can't silently corrupt a
  routed circuit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.router import resolve_router
from repro.arch.topology import (
    all_to_all,
    grid_2d,
    heavy_hex,
    line,
    random_regular,
    ring,
    star,
    tree,
)
from repro.circuits.circuit import Circuit
from repro.gates.base import index_to_values
from repro.gates.controlled import ControlledGate
from repro.gates.qutrit import X01, X02, X_MINUS_1, X_PLUS_1
from repro.optimize import (
    CancelAdjacentInverses,
    CommutationPacking,
    FuseDiagonalGates,
    RewriteEngine,
)
from repro.qudits import qutrits
from repro.sim.classical import ClassicalSimulator
from repro.sim.kernels import mixed_radix_weights
from repro.verify import assert_equivalent

#: Classical qutrit gates incl. inverse pairs, so cancellation fires.
GATES = [X01, X02, X_PLUS_1, X_MINUS_1]

TOPOLOGY_KINDS = [
    "line", "ring", "star", "tree", "grid", "full", "random", "heavy_hex",
]


def _topology_for(kind: str, num_wires: int, draw):
    if kind == "line":
        return line(num_wires)
    if kind == "ring":
        return ring(num_wires)
    if kind == "star":
        return star(num_wires)
    if kind == "tree":
        return tree(num_wires, branching=draw(st.integers(1, 3)))
    if kind == "full":
        return all_to_all(num_wires)
    if kind == "random":
        return random_regular(
            max(num_wires, 2), degree=3, seed=draw(st.integers(0, 5))
        )
    if kind == "heavy_hex":
        return heavy_hex(2, 2)  # 7 sites, covers every width drawn
    rows = draw(st.integers(1, 3))
    cols = (num_wires + rows - 1) // rows
    return grid_2d(rows, max(cols, 1))


@st.composite
def classical_circuits(draw):
    num_wires = draw(st.integers(2, 4))
    wires = qutrits(num_wires)
    circuit = Circuit()
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            gate = draw(st.sampled_from(GATES))
            circuit.append(gate.on(draw(st.sampled_from(wires))))
        else:
            gate = ControlledGate(
                draw(st.sampled_from(GATES)),
                (3,),
                (draw(st.integers(0, 2)),),
            )
            pair = draw(
                st.lists(
                    st.sampled_from(wires),
                    min_size=2, max_size=2, unique=True,
                )
            )
            circuit.append(gate.on(*pair))
        if draw(st.booleans()):
            circuit.barrier()
    return circuit, wires


@st.composite
def circuits_and_topologies(draw):
    circuit, wires = draw(classical_circuits())
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    topology = _topology_for(kind, len(wires), draw)
    router = draw(st.sampled_from(["greedy", "lookahead"]))
    return circuit, wires, topology, router


PASS_STACKS = [
    lambda: [CancelAdjacentInverses()],
    lambda: [FuseDiagonalGates()],
    lambda: [CommutationPacking()],
    None,  # the default stack
]


class TestPassesPreserveAction:
    @given(classical_circuits(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_each_pass_preserves_permutation_vector(self, setup, which):
        circuit, wires = setup
        stack = PASS_STACKS[which]
        engine = RewriteEngine(
            passes=stack() if stack is not None else None
        )
        optimized, _ = engine.run(circuit)
        sim = ClassicalSimulator()
        assert np.array_equal(
            sim.permutation_vector(circuit, wires),
            sim.permutation_vector(optimized, wires),
        )

    @given(classical_circuits())
    @settings(max_examples=30, deadline=None)
    def test_barriers_only_merge_by_emptying(self, setup):
        # Rewrites stay inside barrier segments: a cut can only
        # disappear when the segment behind it cancels to nothing, so
        # the per-segment actions of the survivors must line up with a
        # subsequence of the original segments (identity segments
        # filling the gaps).
        circuit, wires = setup
        optimized, _ = RewriteEngine().run(circuit)
        assert len(optimized.barrier_floors) <= len(
            circuit.barrier_floors
        )
        assert len(optimized.barrier_segments()) <= len(
            circuit.barrier_segments()
        )

        sim = ClassicalSimulator()
        identity = np.arange(3 ** len(wires))

        def segment_actions(source):
            actions = []
            for segment in source.barrier_segments():
                piece = Circuit()
                for moment in segment:
                    for op in moment.operations:
                        piece.append(op)
                actions.append(sim.permutation_vector(piece, wires))
            return actions

        remaining = segment_actions(optimized)
        for action in segment_actions(circuit):
            if remaining and np.array_equal(remaining[0], action):
                remaining.pop(0)
            else:
                # A dropped segment must have cancelled to the identity.
                assert np.array_equal(action, identity)
        assert not remaining


class TestOptimizerComposesWithRouters:
    @given(circuits_and_topologies())
    @settings(max_examples=40, deadline=None)
    def test_optimize_then_route_is_structurally_equivalent(self, setup):
        circuit, wires, topology, router = setup
        optimized, _ = RewriteEngine().run(circuit)
        routed = resolve_router(router).route(
            optimized, topology, wires=wires
        )
        self._assert_conjugated_equality(circuit, wires, routed)

    @given(circuits_and_topologies())
    @settings(max_examples=40, deadline=None)
    def test_route_then_optimize_is_structurally_equivalent(self, setup):
        circuit, wires, topology, router = setup
        routed = resolve_router(router).route(circuit, topology, wires=wires)
        cleaned, _ = RewriteEngine().run(routed.circuit)
        assert_equivalent(
            cleaned, routed.circuit, wires=routed.sites
        )
        self._assert_conjugated_equality(
            circuit, wires, routed, cleaned_circuit=cleaned
        )

    @staticmethod
    def _assert_conjugated_equality(
        circuit, wires, routed, cleaned_circuit=None
    ):
        sim = ClassicalSimulator()
        v_orig = sim.permutation_vector(circuit, wires)
        v_routed = sim.permutation_vector(
            cleaned_circuit
            if cleaned_circuit is not None
            else routed.circuit,
            routed.sites,
        )
        wire_dims = [w.dimension for w in wires]
        site_dims = [s.dimension for s in routed.sites]
        site_weights = mixed_radix_weights(site_dims)
        for index in range(len(v_orig)):
            values = index_to_values(index, wire_dims)
            site_values = [0] * len(routed.sites)
            for wire, value in zip(wires, values):
                site_values[routed.initial_placement[wire]] = value
            image = int(v_routed[int(np.dot(site_values, site_weights))])
            out_sites = index_to_values(image, site_dims)
            out = tuple(
                out_sites[routed.final_placement[wire]] for wire in wires
            )
            assert out == tuple(
                index_to_values(int(v_orig[index]), wire_dims)
            )
