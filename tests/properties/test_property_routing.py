"""Property-based tests for the SWAP routers (greedy v1 + lookahead v2).

The central property is *structural equivalence through the placement
permutations*: for every topology / router configuration, the routed
circuit's full classical action (PR 4's ``permutation_vector``),
conjugated by the initial and final placements, equals the original
circuit's action.  That subsumes the per-input spot checks: the routers
may only relabel wires, never change the computed permutation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.router import LookaheadRouter, RouterConfig, resolve_router
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
from repro.gates.qutrit import X01, X02, X_PLUS_1
from repro.qudits import qutrits
from repro.sim.classical import ClassicalSimulator
from repro.sim.kernels import mixed_radix_weights

GATES = [X01, X02, X_PLUS_1]


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
def circuits_and_topologies(draw):
    num_wires = draw(st.integers(2, 5))
    wires = qutrits(num_wires)
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        gate = ControlledGate(
            draw(st.sampled_from(GATES)), (3,), (draw(st.integers(0, 2)),)
        )
        pair = draw(
            st.lists(
                st.sampled_from(wires), min_size=2, max_size=2, unique=True
            )
        )
        ops.append(gate.on(*pair))
    circuit = Circuit()
    for op in ops:
        circuit.append(op)
        if draw(st.booleans()):
            circuit.barrier()
    kind = draw(
        st.sampled_from(
            [
                "line", "ring", "star", "tree", "grid", "full",
                "random", "heavy_hex",
            ]
        )
    )
    topology = _topology_for(kind, num_wires, draw)
    router = draw(st.sampled_from(["greedy", "lookahead", "tuned"]))
    if router == "tuned":
        router = RouterConfig(
            lookahead=draw(st.integers(0, 8)),
            placement_trials=draw(st.integers(0, 2)),
            seed=draw(st.integers(0, 99)),
        )
    return circuit, wires, topology, router


def _route(circuit, wires, topology, router):
    return resolve_router(router).route(circuit, topology, wires=wires)


class TestRoutingProperties:
    @given(circuits_and_topologies())
    @settings(max_examples=60, deadline=None)
    def test_routed_action_is_structurally_equivalent(self, setup):
        # The satellite property: permutation_vector(routed), composed
        # with the input/output placements, equals the original's
        # permutation_vector for EVERY topology/router configuration.
        circuit, wires, topology, router = setup
        routed = _route(circuit, wires, topology, router)
        sim = ClassicalSimulator()
        v_orig = sim.permutation_vector(circuit, wires)
        v_routed = sim.permutation_vector(routed.circuit, routed.sites)
        wire_dims = [w.dimension for w in wires]
        site_dims = [s.dimension for s in routed.sites]
        site_weights = mixed_radix_weights(site_dims)
        for index in range(len(v_orig)):
            values = index_to_values(index, wire_dims)
            site_values = [0] * len(routed.sites)
            for wire, value in zip(wires, values):
                site_values[routed.initial_placement[wire]] = value
            image = int(
                v_routed[int(np.dot(site_values, site_weights))]
            )
            out_sites = index_to_values(image, site_dims)
            out = tuple(
                out_sites[routed.final_placement[wire]] for wire in wires
            )
            assert out == tuple(index_to_values(int(v_orig[index]), wire_dims))

    @given(circuits_and_topologies(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_routed_circuit_preserves_semantics(self, setup, seed):
        circuit, wires, topology, router = setup
        routed = _route(circuit, wires, topology, router)
        sim = ClassicalSimulator()
        rng = np.random.default_rng(seed)
        values = {w: int(rng.integers(0, 2)) for w in wires}
        expected = sim.run(circuit, values)
        site_values = {site: 0 for site in routed.sites}
        for wire, value in values.items():
            site_values[
                routed.sites[routed.initial_placement[wire]]
            ] = value
        out = sim.run(routed.circuit, site_values)
        for wire in wires:
            assert out[routed.output_site(wire)] == expected[wire]

    @given(circuits_and_topologies())
    @settings(max_examples=40, deadline=None)
    def test_every_two_qudit_gate_lands_on_an_edge(self, setup):
        circuit, wires, topology, router = setup
        routed = _route(circuit, wires, topology, router)
        for op in routed.circuit.all_operations():
            if op.num_qudits == 2:
                a, b = (w.index for w in op.qudits)
                assert topology.are_adjacent(a, b)

    @given(circuits_and_topologies())
    @settings(max_examples=40, deadline=None)
    def test_placements_stay_bijective(self, setup):
        circuit, wires, topology, router = setup
        routed = _route(circuit, wires, topology, router)
        finals = list(routed.final_placement.values())
        assert len(set(finals)) == len(finals)
        initials = list(routed.initial_placement.values())
        assert len(set(initials)) == len(initials)

    @given(circuits_and_topologies())
    @settings(max_examples=30, deadline=None)
    def test_full_connectivity_is_free(self, setup):
        circuit, wires, _, router = setup
        routed = resolve_router(router).route(
            circuit, all_to_all(len(wires)), wires=wires
        )
        assert routed.swap_count == 0
        assert routed.circuit.num_operations == circuit.num_operations

    @given(circuits_and_topologies())
    @settings(max_examples=30, deadline=None)
    def test_barrier_floors_survive(self, setup):
        circuit, wires, topology, router = setup
        routed = _route(circuit, wires, topology, router)
        assert len(routed.circuit.barrier_floors) == len(
            circuit.barrier_floors
        )

    @given(circuits_and_topologies())
    @settings(max_examples=20, deadline=None)
    def test_lookahead_never_loses_to_itself_rerun(self, setup):
        circuit, wires, topology, _ = setup
        first = LookaheadRouter().route(circuit, topology, wires=wires)
        second = LookaheadRouter().route(circuit, topology, wires=wires)
        assert first.swap_count == second.swap_count
        assert first.circuit == second.circuit
