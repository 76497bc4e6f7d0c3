"""Lookahead (SABRE-style) SWAP routing — the v2 engine.

The greedy v1 router (:func:`repro.arch.routing.route_circuit`) walks
each blocked gate's operands together one hop at a time, ignoring every
other pending gate.  This module routes with the heuristic of Li, Ding
& Xie's SABRE compiler instead:

* the circuit is held as a gate dependency DAG; the **front layer** is
  the set of gates with no unrouted predecessors;
* when no front gate is executable, every SWAP touching a front gate's
  operand is scored by the placement it would produce: the mean distance
  of the front layer plus a discounted mean over a bounded **lookahead
  window** of upcoming two-qudit gates;
* a per-site **decay** penalty spreads consecutive SWAPs across the
  device, avoiding ping-pong moves.

On top of the per-gate heuristic the router searches over **initial
placements** (identity, interaction-frequency order, and seeded random
restarts), keeping the candidate with the fewest SWAPs.  Gates wider
than two wires are lowered in place through the library's standard
decomposition (:func:`repro.gates.decompositions.decompose_operation`)
— the same rules :class:`~repro.execution.passes.DecomposeToWidth2`
applies — instead of raising.  Barrier floors are re-issued in the
routed circuit, matching the v1 contract.

Worst-case safety: if the heuristic ever fails to free a gate within
``max_stalled_swaps`` SWAPs (possible only on adversarial graphs), the
router falls back to the greedy shortest-path walk for the oldest front
gate, which guarantees progress and hence termination.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Iterable

from ..circuits.circuit import Circuit
from ..circuits.operation import GateOperation
from ..exceptions import SchedulingError
from ..qudits import Qudit
from .routing import (
    BARRIER,
    RoutedCircuit,
    check_routable,
    operations_with_barriers,
    resolve_placement,
    swap_gate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gates.base import Gate
    from .topology import CouplingGraph


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of the lookahead router.

    The defaults follow the SABRE paper's shape: a modest lookahead
    window weighted at half the front layer, a light decay, and a few
    seeded placement restarts.  ``placement_trials=0`` disables the
    random restarts (identity and interaction-order placements are
    still tried); an explicit ``placement`` argument disables the
    search entirely.
    """

    #: Upcoming two-qudit gates scored beyond the front layer.
    lookahead: int = 16
    #: Weight of the lookahead window relative to the front layer.
    lookahead_weight: float = 0.5
    #: Additive per-SWAP penalty on recently-swapped sites.
    decay: float = 0.01
    #: SWAPs between decay resets.
    decay_reset: int = 5
    #: Random initial placements tried besides identity + interaction.
    placement_trials: int = 4
    #: Seed of the placement-restart stream.
    seed: int = 2019
    #: Stalled-SWAP budget before the greedy fallback fires.
    max_stalled_swaps: int = 0  # 0 = auto (scales with device size)

    def stall_budget(self, topology: "CouplingGraph") -> int:
        """SWAPs tolerated without freeing a gate before falling back."""
        if self.max_stalled_swaps > 0:
            return self.max_stalled_swaps
        return max(16, 4 * topology.size)


def _lowered_operations(
    circuit: Circuit,
) -> Iterable["GateOperation | str"]:
    """Schedule-ordered ops with wide gates decomposed, barriers kept."""
    from ..gates.decompositions import decompose_operation

    for op in operations_with_barriers(circuit):
        if op is BARRIER or op.num_qudits <= 2:
            yield op
        else:
            yield from decompose_operation(op)


class _SegmentDAG:
    """One barrier-delimited run of operations as a dependency DAG.

    Built once per :meth:`LookaheadRouter.route` call and shared by
    every candidate placement's pass, which walks it through its own
    :class:`_SegmentRun`.  ``wires[i]`` holds operation ``i``'s logical
    wires as ints (their positions in the routed wire list), interned
    once per route.
    """

    def __init__(
        self, gates: list["Gate"], wires: list[tuple[int, ...]]
    ) -> None:
        self.gates = gates
        self.wires = wires
        #: op index -> number of predecessors (before anything runs).
        self.blockers = [0] * len(wires)
        #: op index -> indices unblocked when it finishes.
        self.successors: list[list[int]] = [[] for _ in wires]
        last_on_wire: dict[int, int] = {}
        for index, op_wires in enumerate(wires):
            for wire in op_wires:
                prev = last_on_wire.get(wire)
                if prev is not None:
                    self.successors[prev].append(index)
                    self.blockers[index] += 1
                last_on_wire[wire] = index
        #: Op indices with no predecessors, in schedule order.
        self.front = [
            index
            for index, count in enumerate(self.blockers)
            if count == 0
        ]
        #: Two-qudit op indices in schedule order (the lookahead
        #: window's source).
        self.order_2q = [
            index
            for index, op_wires in enumerate(wires)
            if len(op_wires) == 2
        ]

    def start(self) -> "_SegmentRun":
        """Fresh progress state for one routing pass over this DAG."""
        return _SegmentRun(self)


class _SegmentRun:
    """One routing pass's progress through a shared :class:`_SegmentDAG`.

    Only the blocker counts are copied; the pass keeps its own done
    flags, front layer and lookahead-window head.
    """

    def __init__(self, dag: _SegmentDAG) -> None:
        self.dag = dag
        self.blockers = list(dag.blockers)
        self.done = [False] * len(dag.wires)
        self.front = deque(dag.front)
        self.remaining = len(dag.wires)
        #: Position in ``dag.order_2q`` of the first unexecuted op.
        self.head = 0

    def finish(self, index: int) -> list[int]:
        """Mark ``index`` executed; returns newly unblocked op indices."""
        self.done[index] = True
        self.remaining -= 1
        blockers = self.blockers
        unblocked = []
        for nxt in self.dag.successors[index]:
            blockers[nxt] -= 1
            if blockers[nxt] == 0:
                unblocked.append(nxt)
        return unblocked

    def window(self, size: int) -> list[tuple[int, int]]:
        """Wire pairs of the next <= ``size`` unexecuted two-qudit ops
        past the front."""
        order, done = self.dag.order_2q, self.done
        head, end = self.head, len(order)
        while head < end and done[order[head]]:
            head += 1
        self.head = head
        blockers, wires = self.blockers, self.dag.wires
        out = []
        for position in range(head, end):
            if len(out) >= size:
                break
            index = order[position]
            if not done[index] and blockers[index] > 0:
                out.append(wires[index])
        return out


def _segment_dags(
    circuit: Circuit, logical_wires: list[Qudit]
) -> list[_SegmentDAG]:
    """``circuit``'s barrier segments as DAGs over interned wires.

    Each logical wire becomes its position in ``logical_wires``.  Built
    once per route: every candidate placement's pass walks these DAGs
    with its own progress state.
    """
    wire_id = {wire: k for k, wire in enumerate(logical_wires)}
    parts: list[tuple[list["Gate"], list[tuple[int, ...]]]] = [([], [])]
    for op in _lowered_operations(circuit):
        if op is BARRIER:
            parts.append(([], []))
        else:
            parts[-1][0].append(op.gate)
            parts[-1][1].append(tuple(wire_id[w] for w in op.qudits))
    return [_SegmentDAG(gates, wires) for gates, wires in parts]


class _RoutingState:
    """Placement and routed-operation log of one routing pass, in ints.

    ``where`` maps logical wire -> site and ``occupant`` site -> logical
    wire (-1 = empty).  Routed operations go to ``log`` as
    ``(gate, sites)`` entries (``None`` marks a barrier) while ``depth``
    tracks what :meth:`Circuit.append`/:meth:`Circuit.barrier` would
    schedule, so candidate placements compare on (SWAPs, depth) and only
    the winner is built into a :class:`Circuit`.
    """

    def __init__(self, where: list[int], num_sites: int, swap) -> None:
        self.where = where
        self.occupant = [-1] * num_sites
        for wire, site in enumerate(where):
            self.occupant[site] = wire
        self.swap = swap
        self.log: list = []
        #: site -> last moment using it (-1 = none), as Circuit keeps.
        self.last_use = [-1] * num_sites
        self.floor = 0
        self.depth = 0
        self.swap_count = 0

    def emit(self, gate, sites: tuple[int, ...]) -> None:
        """Log ``gate`` on ``sites`` at its earliest (ASAP) moment."""
        self.log.append((gate, sites))
        last_use = self.last_use
        moment = self.floor
        for site in sites:
            if last_use[site] >= moment:
                moment = last_use[site] + 1
        for site in sites:
            last_use[site] = moment
        if moment >= self.depth:
            self.depth = moment + 1

    def barrier(self) -> None:
        self.log.append(None)
        self.floor = self.depth

    def apply_swap(self, site_a: int, site_b: int) -> None:
        self.emit(self.swap, (site_a, site_b))
        occupant = self.occupant
        wire_a, wire_b = occupant[site_a], occupant[site_b]
        occupant[site_a], occupant[site_b] = wire_b, wire_a
        if wire_a >= 0:
            self.where[wire_a] = site_b
        if wire_b >= 0:
            self.where[wire_b] = site_a
        self.swap_count += 1

    def circuit(self, sites: list[Qudit]) -> Circuit:
        """Replay the log onto ``sites`` as a scheduled circuit."""
        routed = Circuit()
        for entry in self.log:
            if entry is None:
                routed.barrier()
            else:
                gate, on = entry
                routed.append(gate.on(*[sites[site] for site in on]))
        return routed


def _distance_sum(
    gates: list[tuple[int, int]],
    where: list[int],
    table: list[list[int]],
) -> tuple[int, dict[int, list[int]]]:
    """Summed site distance of ``gates`` plus each wire's gate partners."""
    total = 0
    partners: dict[int, list[int]] = defaultdict(list)
    for a, b in gates:
        total += table[where[a]][where[b]]
        partners[a].append(b)
        partners[b].append(a)
    return total, partners


def _swap_delta(
    partners: dict[int, list[int]],
    where: list[int],
    table: list[list[int]],
    wire_a: int,
    site_a: int,
    wire_b: int,
    site_b: int,
) -> int:
    """Change of a distance sum when ``wire_a`` (on ``site_a``) and
    ``wire_b`` (on ``site_b``) trade sites; an empty site's -1 has no
    partners.  Only gates on the two moving wires change distance, and
    a gate between them keeps its (symmetric) distance.
    """
    delta = 0
    if wire_a in partners:
        old, new = table[site_a], table[site_b]
        for other in partners[wire_a]:
            if other != wire_b:
                delta += new[where[other]] - old[where[other]]
    if wire_b in partners:
        old, new = table[site_b], table[site_a]
        for other in partners[wire_b]:
            if other != wire_a:
                delta += new[where[other]] - old[where[other]]
    return delta


class LookaheadRouter:
    """Route circuits with the SABRE front-layer/lookahead heuristic."""

    name = "lookahead"

    def __init__(self, config: RouterConfig | None = None) -> None:
        self.config = config or RouterConfig()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def route(
        self,
        circuit: Circuit,
        topology: "CouplingGraph",
        placement: dict[Qudit, int] | None = None,
        wires: list[Qudit] | None = None,
    ) -> RoutedCircuit:
        """Map ``circuit`` onto ``topology`` with lookahead SWAP search.

        Same contract as :func:`repro.arch.routing.route_circuit`, plus:
        gates wider than two wires are decomposed in place, and with
        ``placement=None`` several initial placements are tried (see
        :class:`RouterConfig`), returning the cheapest routing found.
        """
        logical_wires, dim = check_routable(circuit, topology, wires)
        if not logical_wires:
            return RoutedCircuit(
                Circuit(), [], {}, {}, 0, topology.name,
                router_name=self.name,
            )
        segments = _segment_dags(circuit, logical_wires)
        candidates = (
            [resolve_placement(logical_wires, placement, topology.size)]
            if placement is not None
            else self._candidate_placements(logical_wires, segments, topology)
        )
        swap = swap_gate(dim)
        best: tuple[_RoutingState, dict[Qudit, int]] | None = None
        for candidate in candidates:
            state = self._route_once(
                segments,
                [candidate[wire] for wire in logical_wires],
                topology,
                swap,
                limit=None if best is None else best[0].swap_count,
            )
            if state is not None and (
                best is None
                or (state.swap_count, state.depth)
                < (best[0].swap_count, best[0].depth)
            ):
                best = (state, candidate)
        assert best is not None
        state, initial = best
        sites = [Qudit(index, dim) for index in range(topology.size)]
        return RoutedCircuit(
            circuit=state.circuit(sites),
            sites=sites,
            final_placement={
                wire: state.where[k] for k, wire in enumerate(logical_wires)
            },
            initial_placement=dict(initial),
            swap_count=state.swap_count,
            topology_name=topology.name,
            router_name=self.name,
        )

    # ------------------------------------------------------------------
    # Initial placement search
    # ------------------------------------------------------------------

    def _candidate_placements(
        self,
        logical_wires: list[Qudit],
        segments: list[_SegmentDAG],
        topology: "CouplingGraph",
    ) -> list[dict[Qudit, int]]:
        """Identity, interaction-frequency, and seeded random placements."""
        candidates = [{w: k for k, w in enumerate(logical_wires)}]
        candidates.append(
            self._interaction_placement(logical_wires, segments, topology)
        )
        rng = Random(self.config.seed)
        for _ in range(max(0, self.config.placement_trials)):
            sites = list(range(topology.size))
            rng.shuffle(sites)
            candidates.append(
                {w: sites[k] for k, w in enumerate(logical_wires)}
            )
        # Each candidate costs a full routing pass; collisions are
        # common on small devices (few distinct placements exist).
        unique: dict[tuple, dict[Qudit, int]] = {}
        for candidate in candidates:
            unique.setdefault(
                tuple(sorted(candidate.items())), candidate
            )
        return list(unique.values())

    def _interaction_placement(
        self,
        logical_wires: list[Qudit],
        segments: list[_SegmentDAG],
        topology: "CouplingGraph",
    ) -> dict[Qudit, int]:
        """Greedy interaction-graph embedding.

        Wires are visited by interaction degree (most-coupled first) and
        each is placed on the free site minimising the summed distance
        to its already-placed interaction partners — a cheap one-pass
        approximation of subgraph embedding that gives tree- and
        grid-shaped interaction graphs a near-native start.
        """
        weight: Counter[tuple[int, int]] = Counter()
        degree = [0] * len(logical_wires)
        for segment in segments:
            for pair in segment.wires:
                if len(pair) != 2:
                    continue
                a, b = pair
                weight[(a, b) if a < b else (b, a)] += 1
                degree[a] += 1
                degree[b] += 1
        partners: list[list[tuple[int, int]]] = [[] for _ in logical_wires]
        for (a, b), count in weight.items():
            partners[a].append((b, count))
            partners[b].append((a, count))
        table = topology.distance_table()
        order = sorted(
            range(len(logical_wires)),
            key=lambda k: (-degree[k], logical_wires[k]),
        )
        placed: dict[int, int] = {}
        free = set(range(topology.size))

        def cost(site: int, wire: int) -> int:
            return sum(
                table[site][placed[other]] * count
                for other, count in partners[wire]
                if other in placed
            )

        for wire in order:
            site = min(free, key=lambda s: (cost(s, wire), s))
            placed[wire] = site
            free.discard(site)
        return {logical_wires[k]: site for k, site in placed.items()}

    # ------------------------------------------------------------------
    # One routing pass
    # ------------------------------------------------------------------

    def _route_once(
        self,
        segments: list[_SegmentDAG],
        where: list[int],
        topology: "CouplingGraph",
        swap,
        limit: int | None = None,
    ) -> _RoutingState | None:
        """Route every segment from placement ``where``.

        With a ``limit`` (the best finished candidate's SWAP count) the
        pass is abandoned, returning None, as soon as it needs a SWAP
        beyond it: its count could then only end above the best, and
        it could never win the (SWAPs, depth) comparison.
        """
        state = _RoutingState(where, topology.size, swap)
        for position, dag in enumerate(segments):
            if position:
                state.barrier()
            if not self._route_segment(dag, state, topology, limit):
                return None
        return state

    def _route_segment(
        self,
        dag: _SegmentDAG,
        state: _RoutingState,
        topology: "CouplingGraph",
        limit: int | None = None,
    ) -> bool:
        """Route one barrier-delimited segment with the SABRE loop;
        False if it was abandoned at ``limit`` SWAPs."""
        if not dag.wires:
            return True
        segment = dag.start()
        gates, wires = dag.gates, dag.wires
        adjacency = topology.adjacency()
        where = state.where
        decay: dict[int, float] = {}
        stalled = 0
        stall_budget = self.config.stall_budget(topology)
        last_swap: tuple[int, int] | None = None

        while segment.remaining:
            # Flush every executable front gate (1q always; 2q if the
            # operands sit on coupled sites).
            progressed = False
            scan = len(segment.front)
            for _ in range(scan):
                index = segment.front.popleft()
                op_wires = wires[index]
                if len(op_wires) == 1:
                    state.emit(gates[index], (where[op_wires[0]],))
                else:
                    site_a, site_b = where[op_wires[0]], where[op_wires[1]]
                    if site_b not in adjacency[site_a]:
                        segment.front.append(index)
                        continue
                    state.emit(gates[index], (site_a, site_b))
                segment.front.extend(segment.finish(index))
                progressed = True
            if progressed:
                stalled = 0
                decay.clear()
                last_swap = None
                continue
            if not segment.front:  # pragma: no cover - DAG invariant
                raise SchedulingError(
                    "router invariant violated: pending operations with "
                    "an empty front layer"
                )
            if limit is not None and state.swap_count >= limit:
                return False

            if stalled >= stall_budget:
                # Heuristic is wedged (adversarial graph): greedily walk
                # the oldest front gate's operands together.
                self._greedy_unblock(wires[segment.front[0]], state, topology)
                stalled = 0
                continue

            front = [wires[index] for index in segment.front]
            window = segment.window(self.config.lookahead)
            choice = self._best_swap(
                front, window, state, topology, decay, last_swap
            )
            state.apply_swap(*choice)
            last_swap = choice
            for site in choice:
                decay[site] = decay.get(site, 0.0) + self.config.decay
            stalled += 1
            if stalled % max(1, self.config.decay_reset) == 0:
                decay.clear()
        return True

    def _swap_scores(
        self,
        front: list[tuple[int, int]],
        window: list[tuple[int, int]],
        state: _RoutingState,
        topology: "CouplingGraph",
        decay: dict[int, float],
    ) -> list[tuple[tuple[int, int], float]]:
        """Every SWAP on an edge at a front gate's site, in sorted order,
        with the front + discounted-window distance it would leave.

        The two distance sums are taken once; each candidate adjusts
        them by the gates on the (at most two) wires it moves.
        """
        where, occupant = state.where, state.occupant
        table = topology.distance_table()
        front_sum, front_partners = _distance_sum(front, where, table)
        window_sum, window_partners = _distance_sum(window, where, table)
        adjacency = topology.adjacency()
        active_sites = {where[w] for pair in front for w in pair}
        # Normalised pairs: an edge between two active sites would
        # otherwise be scored in both orientations (score is symmetric).
        candidates = sorted(
            {
                (site, other) if site < other else (other, site)
                for site in active_sites
                for other in adjacency[site]
            }
        )
        weight = self.config.lookahead_weight
        scores = []
        for site_a, site_b in candidates:
            wire_a, wire_b = occupant[site_a], occupant[site_b]
            total = (
                front_sum + _swap_delta(
                    front_partners, where, table,
                    wire_a, site_a, wire_b, site_b,
                )
            ) / len(front)
            if window:
                total += weight * (
                    window_sum + _swap_delta(
                        window_partners, where, table,
                        wire_a, site_a, wire_b, site_b,
                    )
                ) / len(window)
            scores.append((
                (site_a, site_b),
                total * (
                    1.0 + decay.get(site_a, 0.0) + decay.get(site_b, 0.0)
                ),
            ))
        return scores

    def _best_swap(
        self,
        front: list[tuple[int, int]],
        window: list[tuple[int, int]],
        state: _RoutingState,
        topology: "CouplingGraph",
        decay: dict[int, float],
        last_swap: tuple[int, int] | None,
    ) -> tuple[int, int]:
        """The SWAP minimising the front + discounted-window distance
        (first in sorted order on ties)."""
        best_score: float | None = None
        best: tuple[int, int] | None = None
        for pair, value in self._swap_scores(
            front, window, state, topology, decay
        ):
            if pair == last_swap:
                continue  # never undo the move we just made
            if best_score is None or value < best_score:
                best_score = value
                best = pair
        if best is None:
            # Only the reversing swap exists (degree-1 pocket): take it.
            best = last_swap
        if best is None:  # pragma: no cover - check_routable guarantees
            raise SchedulingError("no SWAP candidate on a connected device")
        return best

    def _greedy_unblock(
        self,
        pair: tuple[int, int],
        state: _RoutingState,
        topology: "CouplingGraph",
    ) -> None:
        """Shortest-path fallback: force ``pair``'s wires adjacent."""
        wire_a, wire_b = pair
        where = state.where
        while not topology.are_adjacent(where[wire_a], where[wire_b]):
            step = topology.shortest_path_step(where[wire_a], where[wire_b])
            state.apply_swap(where[wire_a], step)


class GreedyRouter:
    """The v1 one-hop router behind the shared router interface."""

    name = "greedy"

    def route(
        self,
        circuit: Circuit,
        topology: "CouplingGraph",
        placement: dict[Qudit, int] | None = None,
        wires: list[Qudit] | None = None,
    ) -> RoutedCircuit:
        from .routing import route_circuit

        return route_circuit(
            circuit, topology, placement=placement, wires=wires
        )


#: Router names accepted by :func:`resolve_router` and the CLI.
ROUTERS = ("lookahead", "greedy")


def resolve_router(
    spec: "str | RouterConfig | LookaheadRouter | GreedyRouter | None",
) -> "LookaheadRouter | GreedyRouter":
    """Accept a router name, a config, an instance, or None (lookahead)."""
    if spec is None:
        return LookaheadRouter()
    if isinstance(spec, (LookaheadRouter, GreedyRouter)):
        return spec
    if isinstance(spec, RouterConfig):
        return LookaheadRouter(spec)
    if spec == "lookahead":
        return LookaheadRouter()
    if spec == "greedy":
        return GreedyRouter()
    raise KeyError(
        f"unknown router {spec!r}; choose from {list(ROUTERS)} or pass "
        "a RouterConfig / router instance"
    )


__all__ = [
    "RouterConfig",
    "LookaheadRouter",
    "GreedyRouter",
    "ROUTERS",
    "resolve_router",
]
