"""Tests for the compile passes and pipelines."""

from __future__ import annotations

from repro.arch.topology import line
from repro.circuits.circuit import Circuit
from repro.execution import (
    ASAPReschedule,
    CompilePipeline,
    DecomposeToWidth2,
    MergeMoments,
    PipelineSpec,
    RouteToTopology,
    circuit_fingerprint,
)
from repro.gates.qubit import CNOT, X
from repro.qudits import qubits
from repro.toffoli.registry import build_toffoli


class TestDecomposeToWidth2:
    def test_matches_inline_decomposition(self):
        plain = build_toffoli("qutrit_tree", 5, decompose=False).circuit
        inline = build_toffoli("qutrit_tree", 5).circuit
        lowered = DecomposeToWidth2().transform(plain)
        assert lowered.max_gate_width() == 2
        assert circuit_fingerprint(lowered) == circuit_fingerprint(inline)

    def test_reports_operation_counts(self):
        plain = build_toffoli("qutrit_tree", 4, decompose=False).circuit
        compile_pass = DecomposeToWidth2()
        lowered = compile_pass.transform(plain)
        assert compile_pass.last_metadata["ops_before"] == plain.num_operations
        assert (
            compile_pass.last_metadata["ops_after"]
            == lowered.num_operations
        )


class TestRouteToTopology:
    def test_routed_gates_respect_line_adjacency(self):
        built = build_toffoli("qutrit_tree", 4)
        route = RouteToTopology(line)
        routed = route.transform(built.circuit)
        topology = line(len(built.circuit.all_qudits()))
        sites = {w.index for w in routed.all_qudits()}
        assert sites <= set(range(topology.size))
        for op in routed.all_operations():
            if op.num_qudits == 2:
                assert topology.are_adjacent(
                    op.qudits[0].index, op.qudits[1].index
                )
        assert route.last_metadata["swap_count"] > 0

    def test_all_to_all_needs_no_swaps(self):
        from repro.arch.topology import all_to_all

        built = build_toffoli("qutrit_tree", 3)
        route = RouteToTopology(all_to_all)
        routed = route.transform(built.circuit)
        assert route.last_metadata["swap_count"] == 0
        assert routed.num_operations == built.circuit.num_operations

    def test_defaults_to_lookahead_router(self):
        route = RouteToTopology(line)
        assert route.name == "RouteToTopology[lookahead]"
        built = build_toffoli("qutrit_tree", 4)
        route.transform(built.circuit)
        assert route.last_metadata["router"] == "lookahead"

    def test_greedy_router_selectable(self):
        built = build_toffoli("qutrit_tree", 4)
        greedy = RouteToTopology(line, router="greedy")
        assert greedy.name == "RouteToTopology[greedy]"
        greedy.transform(built.circuit)
        smart = RouteToTopology(line)
        smart.transform(built.circuit)
        assert (
            smart.last_metadata["swap_count"]
            <= greedy.last_metadata["swap_count"]
        )

    def test_topology_by_zoo_name(self):
        built = build_toffoli("qutrit_tree", 4)
        route = RouteToTopology("heavy_hex")
        route.transform(built.circuit)
        assert route.last_metadata["topology"].startswith("heavy-hex")

    def test_topology_by_spec(self):
        from repro.arch.topology import TopologySpec

        built = build_toffoli("qutrit_tree", 4)
        route = RouteToTopology(TopologySpec("ring", {"size": 5}))
        route.transform(built.circuit)
        assert route.last_metadata["topology"] == "ring(5)"

    def test_metadata_and_last_routed(self):
        built = build_toffoli("qutrit_tree", 4)
        route = RouteToTopology(line)
        routed_circuit = route.transform(built.circuit)
        meta = route.last_metadata
        assert meta["routed_depth"] == routed_circuit.depth
        assert meta["depth_overhead"] >= 1.0
        assert meta["swap_overhead"] >= 0.0
        assert route.last_routed is not None
        assert route.last_routed.circuit == routed_circuit
        assert set(route.last_routed.final_placement) == set(
            built.circuit.all_qudits()
        )

    def test_lookahead_routes_undecomposed_circuits(self):
        # The v2 router lowers 3-wire gates itself; no DecomposeToWidth2
        # needed upstream.
        built = build_toffoli("qutrit_tree", 4, decompose=False)
        route = RouteToTopology(line)
        routed = route.transform(built.circuit)
        assert routed.max_gate_width() <= 2


class TestScheduling:
    def _barriered(self):
        a, b = qubits(2)
        circuit = Circuit([X.on(a)])
        circuit.barrier()
        circuit.append([X.on(b)])
        return circuit

    def test_merge_moments_preserves_barriers(self):
        circuit = self._barriered()
        merged = MergeMoments().transform(circuit)
        assert merged.depth == 2

    def test_asap_reschedule_drops_barriers(self):
        circuit = self._barriered()
        packed = ASAPReschedule().transform(circuit)
        assert packed.depth == 1

    def test_transformed_replays_barriers(self):
        circuit = self._barriered()
        identity = circuit.transformed(lambda op: [op])
        assert identity.depth == 2
        assert identity.barrier_floors == (1,)


class TestPipelines:
    def test_pipeline_trace(self):
        plain = build_toffoli("qutrit_tree", 4, decompose=False).circuit
        compiled = PipelineSpec.from_name("lowering").build().compile(plain)
        assert compiled.pass_names == ("DecomposeToWidth2", "MergeMoments")
        assert len(compiled.pass_metadata) == 2
        assert compiled.input_depth == plain.depth
        assert "DecomposeToWidth2" in compiled.report()

    def test_then_extends_immutably(self):
        base = CompilePipeline([DecomposeToWidth2()])
        extended = base.then(MergeMoments())
        assert len(base) == 1
        assert len(extended) == 2

    def test_qutrit_promotion_pipeline_on_qubit_circuit(self):
        a, b = qubits(2)
        circuit = Circuit([X.on(a), CNOT.on(a, b)])
        pipeline = PipelineSpec.from_name("qutrit-promotion").build()
        compiled = pipeline.compile(circuit)
        assert all(
            w.dimension == 3 for w in compiled.circuit.all_qudits()
        )
