"""Parity of the lookahead router's shared segment DAGs and pruning.

``LookaheadRouter.route`` builds each barrier segment's dependency DAG
once and lets every candidate placement's pass walk it with its own
progress state.  The oracle here is the per-pass DAG the router used to
build from scratch for every candidate (``_FreshSegment``, its logic
unchanged): for every candidate placement of the golden workloads on
line, grid, ring and heavy-hex devices, both must route to the same
SWAP count, depth and op log.

``route`` also abandons a candidate once it needs more SWAPs than the
best finished one.  Its oracle is the full search: every candidate
routed to the end with ``_route_once``, the first with the fewest
(SWAPs, depth) kept.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import pytest

from repro.arch.router import (
    LookaheadRouter,
    _SegmentDAG,
    _segment_dags,
)
from repro.arch.routing import check_routable, swap_gate
from repro.arch.topology import sized_topology
from repro.execution.passes import RouteToTopology
from repro.execution.pipeline_spec import PIPELINE_SPECS
from repro.interop.workloads import random_clifford_t

from .test_compile_golden import HEAVY_HEX_MAX_WIDTH, workloads

KINDS = ("line", "grid_2d", "ring", "heavy_hex")


class _FreshSegment:
    """The per-pass segment DAG the router built before DAGs were shared."""

    def __init__(self, wires: list[tuple[int, ...]]) -> None:
        self.wires = wires
        self.blockers = [0] * len(wires)
        self.successors: list[list[int]] = [[] for _ in wires]
        last_on_wire: dict[int, int] = {}
        for index, op_wires in enumerate(wires):
            for wire in op_wires:
                prev = last_on_wire.get(wire)
                if prev is not None:
                    self.successors[prev].append(index)
                    self.blockers[index] += 1
                last_on_wire[wire] = index
        self.front = deque(
            index
            for index, count in enumerate(self.blockers)
            if count == 0
        )
        self.pending_2q = deque(
            index
            for index, op_wires in enumerate(wires)
            if len(op_wires) == 2
        )
        self.done = [False] * len(wires)
        self.remaining = len(wires)

    def finish(self, index: int) -> list[int]:
        self.done[index] = True
        self.remaining -= 1
        unblocked = []
        for nxt in self.successors[index]:
            self.blockers[nxt] -= 1
            if self.blockers[nxt] == 0:
                unblocked.append(nxt)
        return unblocked

    def window(self, size: int) -> list[tuple[int, int]]:
        while self.pending_2q and self.done[self.pending_2q[0]]:
            self.pending_2q.popleft()
        out = []
        for index in self.pending_2q:
            if len(out) >= size:
                break
            if not self.done[index] and self.blockers[index] > 0:
                out.append(self.wires[index])
        return out


@lru_cache(maxsize=None)
def _route_input(key: str):
    """The circuit the route stage of ``hardware-line-opt`` receives."""
    _, build = workloads()[key]
    circuit = build()
    for stage in PIPELINE_SPECS["hardware-line-opt"].build():
        if isinstance(stage, RouteToTopology):
            return circuit
        circuit = stage.transform(circuit)
    raise AssertionError("pipeline has no route stage")


def _cases():
    return [
        (key, kind)
        for key, (width, _) in workloads().items()
        for kind in KINDS
        if kind != "heavy_hex" or width <= HEAVY_HEX_MAX_WIDTH
    ]


def _snapshot(dags):
    return [
        (list(dag.blockers), [list(s) for s in dag.successors],
         list(dag.front), list(dag.order_2q))
        for dag in dags
    ]


@pytest.mark.parametrize(
    "key,kind", _cases(), ids=[f"{k}|{kind}" for k, kind in _cases()]
)
def test_shared_dag_routes_every_candidate_like_a_fresh_one(
    key, kind, monkeypatch
):
    circuit = _route_input(key)
    topology = sized_topology(kind, len(circuit.all_qudits()))
    logical_wires, dim = check_routable(circuit, topology, None)
    router = LookaheadRouter()
    swap = swap_gate(dim)
    dags = _segment_dags(circuit, logical_wires)
    before = _snapshot(dags)
    candidates = router._candidate_placements(logical_wires, dags, topology)
    assert len(candidates) > 1
    swaps = 0
    for candidate in candidates:
        where = [candidate[wire] for wire in logical_wires]
        shared = router._route_once(dags, list(where), topology, swap)
        with monkeypatch.context() as patch:
            patch.setattr(
                _SegmentDAG, "start", lambda dag: _FreshSegment(dag.wires)
            )
            fresh = router._route_once(dags, list(where), topology, swap)
        assert shared.swap_count == fresh.swap_count
        assert shared.depth == fresh.depth
        assert shared.log == fresh.log
        assert shared.where == fresh.where
        swaps += shared.swap_count
    # Passes never write to the shared DAG.
    assert _snapshot(dags) == before
    # Random restarts scatter the wires, so some pass inserted SWAPs.
    assert swaps > 0


def test_route_builds_each_segment_dag_once(monkeypatch):
    built = []
    original = _SegmentDAG.__init__

    def counting(self, gates, wires):
        built.append(len(wires))
        original(self, gates, wires)

    monkeypatch.setattr(_SegmentDAG, "__init__", counting)
    circuit = _route_input("qft-6")
    topology = sized_topology("grid_2d", len(circuit.all_qudits()))
    routed = LookaheadRouter().route(circuit, topology)
    segments = len(circuit.barrier_segments())
    assert len(built) == segments
    assert routed.swap_count > 0


def _full_search(router, circuit, topology):
    """What ``route`` picks without pruning: (wires, best state, its
    initial placement)."""
    logical_wires, dim = check_routable(circuit, topology, None)
    dags = _segment_dags(circuit, logical_wires)
    swap = swap_gate(dim)
    best = None
    for candidate in router._candidate_placements(
        logical_wires, dags, topology
    ):
        where = [candidate[wire] for wire in logical_wires]
        state = router._route_once(dags, where, topology, swap)
        if best is None or (state.swap_count, state.depth) < (
            best[0].swap_count, best[0].depth
        ):
            best = (state, candidate)
    return logical_wires, best[0], best[1]


def _assert_route_is_the_full_search(circuit, topology):
    router = LookaheadRouter()
    logical_wires, state, initial = _full_search(router, circuit, topology)
    routed = router.route(circuit, topology)
    assert routed.swap_count == state.swap_count
    assert routed.initial_placement == initial
    assert routed.final_placement == {
        wire: state.where[k] for k, wire in enumerate(logical_wires)
    }
    assert routed.circuit.to_dict() == state.circuit(routed.sites).to_dict()


@pytest.mark.parametrize(
    "key,kind", _cases(), ids=[f"{k}|{kind}" for k, kind in _cases()]
)
def test_pruned_route_picks_the_full_search_winner(key, kind):
    circuit = _route_input(key)
    topology = sized_topology(kind, len(circuit.all_qudits()))
    _assert_route_is_the_full_search(circuit, topology)


_RANDOM_CASES = [
    (n, kind, seed)
    for n in (4, 6, 8)
    for kind in ("line", "grid_2d", "ring")
    for seed in range(3)
]


@pytest.mark.parametrize(
    "n,kind,seed", _RANDOM_CASES,
    ids=[f"{n}q|{kind}|{seed}" for n, kind, seed in _RANDOM_CASES],
)
def test_pruned_route_matches_on_seeded_random_circuits(n, kind, seed):
    circuit = random_clifford_t(n, 30 * n, seed=seed)
    topology = sized_topology(kind, n)
    _assert_route_is_the_full_search(circuit, topology)


def test_pruning_abandons_losing_candidates(monkeypatch):
    circuit = _route_input("qubit_ancilla_free-6")
    topology = sized_topology("line", len(circuit.all_qudits()))
    router = LookaheadRouter()
    decisions = []
    original = LookaheadRouter._best_swap

    def counted(self, *args):
        decisions.append(args)
        return original(self, *args)

    monkeypatch.setattr(LookaheadRouter, "_best_swap", counted)
    _full_search(router, circuit, topology)
    full = len(decisions)
    decisions.clear()
    outcomes = []
    route_once = LookaheadRouter._route_once

    def recorded(self, *args, **kwargs):
        outcomes.append(route_once(self, *args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(LookaheadRouter, "_route_once", recorded)
    router.route(circuit, topology)
    assert None in outcomes
    assert len(decisions) < full
