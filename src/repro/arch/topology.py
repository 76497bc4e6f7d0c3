"""Device coupling graphs — the topology zoo.

A :class:`CouplingGraph` is a set of physical sites with an undirected
edge wherever a two-qudit gate can act natively.  The zoo covers the
families the paper's Sec. 7/9 connectivity discussion needs plus the
lattices of real devices:

* :func:`all_to_all` — trapped-ion chains within one trap (Sec. 7.3);
* :func:`line` / :func:`ring` — 1D nearest-neighbour chains, open or
  periodic;
* :func:`grid_2d` — nearest-neighbour 2D grid (superconducting
  lattices, Sec. 9);
* :func:`star` — one central hub (a resonator-bus caricature);
* :func:`tree` — complete b-ary tree, the natural host for the paper's
  log-depth qutrit tree;
* :func:`heavy_hex` — hexagonal lattice with every edge subdivided
  (degree <= 3, IBM-style heavy-hex);
* :func:`random_regular` — seeded random d-regular graph, the
  expander-like control case.

Every factory records a serializable :class:`TopologySpec` on the graph
it returns, so topologies round-trip through JSON alongside circuits and
bench reports.  Factories are memoised: repeated builds of one spec
share the graph object and its cached all-pairs distance table.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from ..exceptions import SerializationError


class CouplingGraph:
    """An undirected connectivity graph over sites ``0 .. size-1``."""

    def __init__(
        self,
        size: int,
        edges: Iterable[tuple[int, int]],
        name: str,
        spec: "TopologySpec | None" = None,
    ) -> None:
        if size < 1:
            raise ValueError("topology needs at least one site")
        self._size = size
        self._name = name
        self._spec = spec
        self._adjacency: dict[int, set[int]] = {s: set() for s in range(size)}
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on site {a}")
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"edge ({a},{b}) outside 0..{size - 1}")
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        # Frozen copies for membership tests only: iterating them could
        # visit neighbours in another order than ``_adjacency``, whose
        # order breaks ties in ``shortest_path_step``.
        self._frozen_adjacency = tuple(
            frozenset(self._adjacency[site]) for site in range(size)
        )
        self._distance: list[list[int]] | None = None

    @property
    def size(self) -> int:
        """Number of physical sites."""
        return self._size

    @property
    def name(self) -> str:
        """Topology label used in reports."""
        return self._name

    @property
    def spec(self) -> "TopologySpec | None":
        """The serializable recipe this graph was built from (if any)."""
        return self._spec

    def neighbors(self, site: int) -> set[int]:
        """Sites adjacent to ``site``."""
        return set(self._adjacency[site])

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Every site's neighbour set, indexed by site.

        Built once per graph, so hot loops (the router's front and
        SWAP-candidate scans) test ``b in adjacency[a]`` without a
        method call or the copy :meth:`neighbors` makes.  For
        membership tests and order-free uses: iteration order may
        differ from :meth:`neighbors`.
        """
        return self._frozen_adjacency

    def edges(self) -> list[tuple[int, int]]:
        """Every undirected edge once, as sorted pairs in sorted order."""
        return sorted(
            (a, b)
            for a, nbrs in self._adjacency.items()
            for b in nbrs
            if a < b
        )

    def degree(self, site: int) -> int:
        """Number of native couplings at ``site``."""
        return len(self._adjacency[site])

    def are_adjacent(self, a: int, b: int) -> bool:
        """True iff a native two-qudit gate can couple ``a`` and ``b``."""
        return b in self._adjacency[a]

    def _ensure_distances(self) -> list[list[int]]:
        if self._distance is None:
            table = []
            for source in range(self._size):
                dist = [-1] * self._size
                dist[source] = 0
                queue = deque([source])
                while queue:
                    here = queue.popleft()
                    for nxt in self._adjacency[here]:
                        if dist[nxt] < 0:
                            dist[nxt] = dist[here] + 1
                            queue.append(nxt)
                table.append(dist)
            self._distance = table
        return self._distance

    def distance_table(self) -> list[list[int]]:
        """The cached all-pairs hop-count table (BFS from every site).

        Computed once per graph and shared by every router scoring pass;
        ``table[a][b]`` is -1 for disconnected pairs.
        """
        return self._ensure_distances()

    def distance(self, a: int, b: int) -> int:
        """Hop count between sites (-1 if disconnected)."""
        return self._ensure_distances()[a][b]

    def is_connected(self) -> bool:
        """True iff every site can reach every other."""
        return all(d >= 0 for d in self._ensure_distances()[0])

    def diameter(self) -> int:
        """Longest shortest path — the routing worst case."""
        table = self._ensure_distances()
        return max(max(row) for row in table)

    def shortest_path_step(self, source: int, target: int) -> int:
        """The neighbour of ``source`` that moves one hop toward ``target``."""
        if source == target:
            raise ValueError("source equals target")
        table = self._ensure_distances()
        best = min(
            self._adjacency[source], key=lambda s: table[s][target]
        )
        if table[best][target] >= table[source][target]:
            raise ValueError(
                f"no progress from {source} toward {target} (disconnected?)"
            )
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CouplingGraph {self._name} size={self._size}>"


# ----------------------------------------------------------------------
# The zoo
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def all_to_all(size: int) -> CouplingGraph:
    """Full connectivity — trapped-ion chains within one trap."""
    edges = [(a, b) for a in range(size) for b in range(a + 1, size)]
    return CouplingGraph(
        size, edges, f"all-to-all({size})",
        spec=TopologySpec("all_to_all", {"size": size}),
    )


@lru_cache(maxsize=None)
def line(size: int) -> CouplingGraph:
    """1D nearest-neighbour chain."""
    return CouplingGraph(
        size, [(k, k + 1) for k in range(size - 1)], f"line({size})",
        spec=TopologySpec("line", {"size": size}),
    )


@lru_cache(maxsize=None)
def ring(size: int) -> CouplingGraph:
    """1D chain with periodic boundary — halves the worst-case distance."""
    edges = [(k, k + 1) for k in range(size - 1)]
    if size > 2:
        edges.append((size - 1, 0))
    return CouplingGraph(
        size, edges, f"ring({size})",
        spec=TopologySpec("ring", {"size": size}),
    )


@lru_cache(maxsize=None)
def star(size: int) -> CouplingGraph:
    """One central hub (site 0) coupled to every leaf — diameter 2."""
    edges = [(0, leaf) for leaf in range(1, size)]
    return CouplingGraph(
        size, edges, f"star({size})",
        spec=TopologySpec("star", {"size": size}),
    )


@lru_cache(maxsize=None)
def tree(size: int, branching: int = 2) -> CouplingGraph:
    """Complete ``branching``-ary tree filled in level order.

    Site ``k > 0`` hangs off site ``(k - 1) // branching`` — the natural
    host topology for the paper's log-depth qutrit tree.
    """
    if branching < 1:
        raise ValueError("tree branching factor must be >= 1")
    edges = [(k, (k - 1) // branching) for k in range(1, size)]
    return CouplingGraph(
        size, edges, f"tree({size},b{branching})",
        spec=TopologySpec("tree", {"size": size, "branching": branching}),
    )


@lru_cache(maxsize=None)
def grid_2d(rows: int, cols: int) -> CouplingGraph:
    """2D nearest-neighbour grid — superconducting lattices (Sec. 9)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            if c + 1 < cols:
                edges.append((site, site + 1))
            if r + 1 < rows:
                edges.append((site, site + cols))
    return CouplingGraph(
        rows * cols, edges, f"grid({rows}x{cols})",
        spec=TopologySpec("grid_2d", {"rows": rows, "cols": cols}),
    )


@lru_cache(maxsize=None)
def heavy_hex(rows: int, cols: int) -> CouplingGraph:
    """Hexagonal (brick-wall) lattice with every edge subdivided.

    Vertices of a ``rows x cols`` grid carry all horizontal edges but
    only the alternating vertical edges where ``(row + col)`` is even —
    the brick-wall embedding of the hexagonal lattice — and one extra
    site subdivides each edge.  Every site has degree <= 3, the
    IBM-style "heavy" property that keeps frequency-collision crosstalk
    low on transmon devices.
    """
    if rows < 1 or cols < 1:
        raise ValueError("heavy_hex needs at least a 1x1 vertex grid")
    base_edges = []
    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            if c + 1 < cols:
                base_edges.append((site, site + 1))
            # Brick-wall parity drops alternate vertical couplings; a
            # single-column lattice keeps them all (it degenerates to a
            # subdivided path) so every shape stays connected.
            if r + 1 < rows and ((r + c) % 2 == 0 or cols == 1):
                base_edges.append((site, site + cols))
    size = rows * cols
    edges = []
    for a, b in base_edges:
        mid = size
        size += 1
        edges.append((a, mid))
        edges.append((mid, b))
    return CouplingGraph(
        size, edges, f"heavy-hex({rows}x{cols})",
        spec=TopologySpec("heavy_hex", {"rows": rows, "cols": cols}),
    )


@lru_cache(maxsize=None)
def random_regular(
    size: int, degree: int = 3, seed: int = 2019
) -> CouplingGraph:
    """Seeded random ``degree``-regular graph (pairing model).

    The expander-like control case: O(log n) typical distances with
    constant degree.  ``degree`` is clamped to ``size - 1`` and lowered
    by one when ``size * degree`` is odd (no such regular graph exists).
    Deterministic for a given ``(size, degree, seed)``.
    """
    degree = max(0, min(degree, size - 1))
    if (size * degree) % 2:
        degree -= 1
    spec = TopologySpec(
        "random_regular",
        {"size": size, "degree": degree, "seed": seed},
    )
    if degree <= 0:
        if size > 1:
            raise ValueError(
                f"random_regular({size}, degree={degree}) cannot connect "
                "more than one site"
            )
        return CouplingGraph(size, [], f"random-regular({size},d0)", spec)
    rng = random.Random(seed)
    for _ in range(500):
        stubs = [site for site in range(size) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for k in range(0, len(stubs), 2):
            a, b = stubs[k], stubs[k + 1]
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if not ok:
            continue
        graph = CouplingGraph(
            size, sorted(edges),
            f"random-regular({size},d{degree},s{seed})", spec,
        )
        if graph.is_connected():
            return graph
    raise ValueError(
        f"could not sample a connected {degree}-regular graph on "
        f"{size} sites (seed {seed})"
    )


# ----------------------------------------------------------------------
# Serializable specs and size-driven construction
# ----------------------------------------------------------------------

#: kind -> exact-parameter factory, for :meth:`TopologySpec.build`.
TOPOLOGY_KINDS: dict[str, Callable[..., CouplingGraph]] = {
    "all_to_all": all_to_all,
    "line": line,
    "ring": ring,
    "star": star,
    "tree": tree,
    "grid_2d": grid_2d,
    "heavy_hex": heavy_hex,
    "random_regular": random_regular,
}


@dataclass(frozen=True)
class TopologySpec:
    """A serializable recipe for one coupling graph.

    ``kind`` names a factory in :data:`TOPOLOGY_KINDS`; ``params`` holds
    its keyword arguments (plain ints, so the spec is JSON-clean).
    Specs are values: hashable, comparable, and round-trippable through
    :meth:`to_json` — the form bench reports and compiled-circuit
    metadata record.
    """

    kind: str
    params: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze params into a sorted tuple-backed mapping so specs hash.
        object.__setattr__(
            self, "params", dict(sorted(dict(self.params).items()))
        )

    def __hash__(self) -> int:
        return hash((self.kind, tuple(self.params.items())))

    def build(self) -> CouplingGraph:
        """Construct (or fetch the memoised) graph for this spec."""
        if self.kind not in TOPOLOGY_KINDS:
            raise SerializationError(
                f"unknown topology kind {self.kind!r}; choose from "
                f"{sorted(TOPOLOGY_KINDS)}"
            )
        try:
            return TOPOLOGY_KINDS[self.kind](**self.params)
        except TypeError as error:
            raise SerializationError(
                f"bad parameters for topology {self.kind!r}: {error}"
            ) from error

    def to_dict(self) -> dict:
        """Plain-data form (kind + params)."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TopologySpec":
        """Rebuild a spec from :meth:`to_dict` data."""
        try:
            kind = data["kind"]
            params = {
                str(k): int(v) for k, v in dict(data.get("params", {})).items()
            }
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(
                f"malformed topology spec: {error}"
            ) from error
        return cls(kind, params)

    def to_json(self) -> str:
        """JSON text of :meth:`to_dict` (sorted keys, compact)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "TopologySpec":
        """Rebuild a spec from :meth:`to_json` text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"invalid topology JSON: {error}"
            ) from error
        if not isinstance(data, dict):
            raise SerializationError(
                f"topology JSON must be an object, got {type(data).__name__}"
            )
        return cls.from_dict(data)


def sized_topology(
    kind: str, num_wires: int, seed: int | None = None
) -> CouplingGraph:
    """The smallest zoo member of ``kind`` with >= ``num_wires`` sites.

    The uniform entry point for passes, the CLI, and benches that know a
    circuit's width but not device shapes: 1D/tree/star/random kinds are
    sized exactly; ``grid_2d`` picks the near-square ``isqrt`` shape;
    ``heavy_hex`` grows its vertex grid until the subdivided lattice
    covers the wires.  ``seed`` only affects ``random_regular``.
    """
    if kind not in TOPOLOGY_KINDS:
        raise KeyError(
            f"unknown topology kind {kind!r}; choose from "
            f"{sorted(TOPOLOGY_KINDS)}"
        )
    num_wires = max(1, num_wires)
    if kind == "grid_2d":
        rows = max(1, math.isqrt(num_wires))
        cols = math.ceil(num_wires / rows)
        return grid_2d(rows, cols)
    if kind == "heavy_hex":
        side = 1
        while heavy_hex(side, side).size < num_wires:
            side += 1
        return heavy_hex(side, side)
    if kind == "random_regular":
        if seed is not None:
            return random_regular(num_wires, seed=seed)
        return random_regular(num_wires)
    return TOPOLOGY_KINDS[kind](num_wires)
