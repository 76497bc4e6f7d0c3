"""Tests for post-routing cleanup (arch.cleanup)."""

import numpy as np

from repro.arch import cleanup_routed, count_swaps, resolve_router
from repro.arch.topology import sized_topology
from repro.optimize import RewriteEngine
from repro.sim.classical import ClassicalSimulator
from repro.toffoli.registry import construction_circuit
from repro.verify import assert_equivalent


def _routed(construction="he_tree", controls=3, kind="line"):
    circuit = construction_circuit(construction, controls)
    wires = circuit.all_qudits()
    topology = sized_topology(kind, len(wires))
    return resolve_router("lookahead").route(circuit, topology, wires=wires)


class TestCountSwaps:
    def test_counts_router_inserted_swaps(self):
        routed = _routed()
        assert count_swaps(routed.circuit) == routed.swap_count


class TestCleanupRouted:
    def test_cleanup_shrinks_and_preserves_action(self):
        routed = _routed()
        cleaned, report = cleanup_routed(routed)
        assert cleaned.circuit.num_operations < routed.circuit.num_operations
        assert report.gates_removed > 0
        assert_equivalent(
            cleaned.circuit, routed.circuit, wires=routed.sites
        )

    def test_placements_are_untouched(self):
        routed = _routed()
        cleaned, _ = cleanup_routed(routed)
        assert cleaned.initial_placement == routed.initial_placement
        assert cleaned.final_placement == routed.final_placement
        assert cleaned.sites == routed.sites
        assert cleaned.topology_name == routed.topology_name

    def test_swap_count_recounted_from_circuit(self):
        routed = _routed()
        cleaned, _ = cleanup_routed(routed)
        assert cleaned.swap_count == count_swaps(cleaned.circuit)

    def test_noop_returns_original_record(self):
        # qutrit_tree routes tightly: if nothing improves, the same
        # RoutedCircuit object comes back.
        routed = _routed("qutrit_tree", 3, "all_to_all")
        cleaned, report = cleanup_routed(routed)
        if report.gates_removed == 0 and report.depth_removed == 0:
            assert cleaned is routed

    def test_custom_engine_spec_accepted(self):
        routed = _routed()
        cleaned, report = cleanup_routed(routed, engine="cancel-inverses")
        assert report.gates_removed >= 0
        assert_equivalent(
            cleaned.circuit, routed.circuit, wires=routed.sites
        )

    def test_classical_routed_circuit_keeps_permutation(self):
        # A width-2 classical circuit stays classical through routing,
        # so the full-action permutation oracle applies to its routed +
        # cleaned form.
        from repro.circuits.circuit import Circuit
        from repro.gates.controlled import ControlledGate
        from repro.gates.qutrit import X01, X_MINUS_1, X_PLUS_1
        from repro.qudits import qutrits

        wires = qutrits(4)
        circuit = Circuit()
        circuit.append(ControlledGate(X_PLUS_1, (3,), (1,)).on(*wires[:2]))
        circuit.append(ControlledGate(X01, (3,), (2,)).on(*wires[1:3]))
        circuit.append(X_PLUS_1.on(wires[3]))
        circuit.append(X_MINUS_1.on(wires[3]))
        circuit.append(
            ControlledGate(X_PLUS_1, (3,), (1,)).on(*wires[2:4])
        )
        topology = sized_topology("line", len(wires))
        routed = resolve_router("lookahead").route(
            circuit, topology, wires=wires
        )
        cleaned, _ = cleanup_routed(routed, engine=RewriteEngine())
        sim = ClassicalSimulator()
        assert np.array_equal(
            sim.permutation_vector(routed.circuit, routed.sites),
            sim.permutation_vector(cleaned.circuit, cleaned.sites),
        )
