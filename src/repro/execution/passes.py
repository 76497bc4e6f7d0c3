"""Composable circuit-transform passes.

Each pass maps a :class:`~repro.circuits.circuit.Circuit` to a new
circuit, optionally reporting metadata (e.g. SWAP counts from routing).
Passes replace the ad-hoc ``decompose=...`` flags and per-app lowering
calls scattered through the constructions: a
:class:`~repro.execution.pipeline.CompilePipeline` chains them in order,
mirroring Cirq-style transformer stacks.  The qubit-to-qutrit lift
and its inverse live with the interop layer
(:mod:`repro.interop.transform`).

All structural passes preserve barrier semantics: operations are replayed
through ASAP scheduling with the source circuit's barrier floors
re-issued, so a ``barrier()`` placed upstream keeps separating phases
downstream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping, Sequence

from ..arch.metrics import routing_metrics
from ..arch.router import GreedyRouter, LookaheadRouter, RouterConfig, resolve_router
from ..arch.routing import RoutedCircuit
from ..arch.topology import (
    CouplingGraph,
    TopologySpec,
    all_to_all,
    line,
    sized_topology,
)
from ..circuits.circuit import Circuit
from ..gates.decompositions import decompose_operation
from ..qudits import Qudit


class CompilePass(ABC):
    """One circuit-to-circuit transformation step."""

    @property
    def name(self) -> str:
        """Pass label used in pipeline reports."""
        return type(self).__name__

    @abstractmethod
    def transform(self, circuit: Circuit) -> Circuit:
        """Return the transformed circuit.

        Passes with interesting bookkeeping additionally fill
        :attr:`last_metadata` during the call.
        """

    #: Metadata from the most recent :meth:`transform` call.
    last_metadata: Mapping = {}

    def __call__(self, circuit: Circuit) -> Circuit:
        return self.transform(circuit)


class DecomposeToWidth2(CompilePass):
    """Lower every 3+-wire gate to 1- and 2-qudit gates.

    Uses the library's decomposition rules (Barenco CC-U for qubit
    controls, the root-of-U cascade on a qudit host otherwise) — the same
    lowering the constructions used to trigger through ``decompose=True``
    flags.
    """

    def transform(self, circuit: Circuit) -> Circuit:
        before = circuit.num_operations
        lowered = circuit.transformed(decompose_operation)
        self.last_metadata = {
            "ops_before": before,
            "ops_after": lowered.num_operations,
        }
        return lowered


class RouteToTopology(CompilePass):
    """Insert SWAPs so two-qudit gates only touch coupled sites.

    ``topology`` may be a fixed :class:`CouplingGraph`, a serializable
    :class:`~repro.arch.topology.TopologySpec`, a zoo kind name
    (``"line"``, ``"grid_2d"``, ``"heavy_hex"``, ... — sized to the
    circuit at transform time via
    :func:`~repro.arch.topology.sized_topology`), or a callable
    ``size -> CouplingGraph``.  ``router`` selects the engine: the
    lookahead (SABRE-style) router by default, ``"greedy"`` for the v1
    one-hop baseline, or a :class:`~repro.arch.router.RouterConfig` /
    router instance for tuned runs.  The lookahead engine decomposes
    gates wider than two wires itself; the greedy baseline requires
    :class:`DecomposeToWidth2` first.

    Besides the transformed circuit, the pass records routing-aware
    metrics (:func:`repro.arch.metrics.routing_metrics`) in
    ``last_metadata`` and keeps the full :class:`RoutedCircuit` —
    placements included — as ``last_routed``.
    """

    def __init__(
        self,
        topology: (
            CouplingGraph
            | TopologySpec
            | str
            | Callable[[int], CouplingGraph]
        ) = line,
        placement: dict[Qudit, int] | None = None,
        router: (
            str | RouterConfig | LookaheadRouter | GreedyRouter | None
        ) = None,
    ) -> None:
        self._topology = topology
        self._placement = placement
        self._router = resolve_router(router)
        #: Full routing record of the most recent transform.
        self.last_routed: RoutedCircuit | None = None

    @property
    def name(self) -> str:
        return f"RouteToTopology[{self._router.name}]"

    def _resolve_topology(self, num_wires: int) -> CouplingGraph:
        if isinstance(self._topology, CouplingGraph):
            return self._topology
        if isinstance(self._topology, TopologySpec):
            return self._topology.build()
        if isinstance(self._topology, str):
            return sized_topology(self._topology, num_wires)
        return self._topology(num_wires)

    def transform(self, circuit: Circuit) -> Circuit:
        wires = circuit.all_qudits()
        topology = self._resolve_topology(len(wires))
        routed = self._router.route(
            circuit, topology, placement=self._placement, wires=wires
        )
        self.last_routed = routed
        metrics = routing_metrics(circuit, routed)
        self.last_metadata = {
            "topology": routed.topology_name,
            "router": routed.router_name,
            "swap_count": routed.swap_count,
            "routed_depth": routed.depth,
            "depth_overhead": metrics.depth_overhead,
            "swap_overhead": metrics.swap_overhead,
            "initial_placement": dict(routed.initial_placement),
            "final_placement": dict(routed.final_placement),
        }
        return routed.circuit


class OptimizePass(CompilePass):
    """Run the rewrite engine (:mod:`repro.optimize`) as a pipeline stage.

    Wraps a :class:`~repro.optimize.RewriteEngine` — cancellation,
    diagonal fusion and commutation packing to fixpoint under the cost
    model — as a :class:`CompilePass`, so pipelines get pre- and
    post-routing optimization slots.  ``label`` distinguishes the slots
    in pipeline reports (``Optimize[pre-route]`` vs
    ``Optimize[post-route]``); ``last_report`` keeps the engine's full
    :class:`~repro.optimize.OptimizationReport` for the most recent
    transform.
    """

    def __init__(
        self,
        passes: Sequence | None = None,
        cost_model=None,
        verify: "bool | str" = False,
        label: str = "optimize",
        engine=None,
    ) -> None:
        from ..optimize import RewriteEngine

        if engine is None:
            engine = RewriteEngine(
                passes=passes, cost_model=cost_model, verify=verify
            )
        self._engine = engine
        self._label = label
        #: Engine report of the most recent transform (None before any).
        self.last_report = None

    @property
    def name(self) -> str:
        return f"Optimize[{self._label}]"

    @property
    def engine(self):
        """The wrapped rewrite engine."""
        return self._engine

    def transform(self, circuit: Circuit) -> Circuit:
        optimized, report = self._engine.run(circuit)
        self.last_report = report
        self.last_metadata = {
            "passes": [p.name for p in self._engine.passes],
            "iterations": report.iterations,
            "gates_before": report.cost_before.total_gates,
            "gates_after": report.cost_after.total_gates,
            "two_qudit_before": report.cost_before.two_qudit_gates,
            "two_qudit_after": report.cost_after.two_qudit_gates,
            "depth_before": report.cost_before.depth,
            "depth_after": report.cost_after.depth,
            "verified": report.verified,
        }
        return optimized


class ASAPReschedule(CompilePass):
    """Re-pack operations as early as the gate DAG allows.

    Drops barrier floors — the explicit "tighten everything" step used
    before depth measurements.
    """

    def transform(self, circuit: Circuit) -> Circuit:
        packed = circuit.rescheduled(preserve_barriers=False)
        self.last_metadata = {
            "depth_before": circuit.depth,
            "depth_after": packed.depth,
        }
        return packed


class MergeMoments(CompilePass):
    """Barrier-preserving merge: pack moments up to each barrier floor.

    The safe default finishing pass — the compression of
    :class:`ASAPReschedule` without letting phases bleed across
    ``barrier()`` calls.
    """

    def transform(self, circuit: Circuit) -> Circuit:
        packed = circuit.rescheduled(preserve_barriers=True)
        self.last_metadata = {
            "depth_before": circuit.depth,
            "depth_after": packed.depth,
        }
        return packed


__all__ = [
    "CompilePass",
    "DecomposeToWidth2",
    "OptimizePass",
    "RouteToTopology",
    "ASAPReschedule",
    "MergeMoments",
    "all_to_all",
    "line",
]
