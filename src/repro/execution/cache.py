"""Keyed in-memory result cache for the execute() facade.

Benchmark sweeps hit the same (circuit, backend, parameters) points
repeatedly — Figures 9-11 all rebuild the same constructions — so
:func:`repro.execute` can memoise results in-process.  Keys are derived
from a structural circuit fingerprint plus every run parameter that
affects the outcome; unseeded stochastic runs are never cached (their
results are not reproducible, so a cache hit would change semantics).

The LRU can be *layered* over a persistent second level: pass any object
implementing :class:`CacheBacking` (in practice a
:class:`repro.service.store.ResultStore`) as ``backing`` and misses fall
through to it, promoting hits back into memory.  ``put`` writes through,
so results survive the process — the substrate of the serving layer's
restart story.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Hashable, Protocol, runtime_checkable

from ..circuits.circuit import Circuit
from ..qudits import Qudit
from .results import RunResult


def circuit_fingerprint(circuit: Circuit) -> str:
    """A content-addressed digest of a circuit's canonical form.

    Hashes the moment structure with each operation's *canonical gate
    spec* (see :meth:`~repro.gates.base.Gate.canonical_spec`) and wire
    bindings.  The canonical spec carries the gate's full defining data
    — permutation mapping, diagonal phases, or unitary matrix — so two
    gates that merely share a display name can no longer collide, and
    two circuits fingerprint equal exactly when they are structurally
    equal (``Circuit.__eq__``).  Operations within a moment are sorted,
    matching the order-insensitive moment equality.  Each operation's
    term is its cached ``GateOperation.fingerprint_cell()``, so no gate
    spec is serialized twice.
    """
    digest = hashlib.sha256()
    for moment in circuit:
        digest.update(b"|")
        for cell in sorted(op.fingerprint_cell() for op in moment):
            digest.update(cell.encode())
            digest.update(b";")
    return digest.hexdigest()


def cache_key_encoding(key: Hashable) -> str:
    """A canonical JSON encoding of a cache key (stable across runs).

    Cache keys are nested tuples of primitives and :class:`Qudit` wires;
    a persistent second level needs a process-independent name for each
    key, so this flattens the tuple into deterministic JSON.  Unknown
    objects fall back to ``repr`` — good enough to keep distinct keys
    distinct for every type the facade actually puts in a key.
    """

    def encode(obj):
        if isinstance(obj, Qudit):
            return ["qudit", obj.index, obj.dimension]
        if isinstance(obj, (tuple, list)):
            return [encode(item) for item in obj]
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        return ["repr", repr(obj)]

    return json.dumps(encode(key), sort_keys=True, separators=(",", ":"))


def cache_key_digest(key: Hashable) -> str:
    """A content-addressed hex digest of a cache key."""
    return hashlib.sha256(cache_key_encoding(key).encode()).hexdigest()


@runtime_checkable
class CacheBacking(Protocol):
    """A second cache level consulted on LRU misses (e.g. an on-disk
    :class:`~repro.service.store.ResultStore`)."""

    def get(self, key: Hashable) -> RunResult | None:
        """The stored result for ``key``, or None."""
        ...

    def put(self, key: Hashable, result: RunResult) -> bool:
        """Persist ``result``; False if it could not be stored."""
        ...


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Misses served by the persistent backing layer (still hits from
    #: the caller's point of view — the run was not re-executed).
    backing_hits: int = 0
    #: Backing calls that raised: absorbed as misses / dropped writes,
    #: because a broken second level must never break the first.
    backing_errors: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses + self.backing_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either level (0.0 unused)."""
        served = self.hits + self.backing_hits
        return served / self.lookups if self.lookups else 0.0


class ResultCache:
    """A bounded, thread-safe LRU cache of :class:`RunResult` records.

    Every operation — lookup, recency refresh, insert, eviction, stats
    bookkeeping — happens under one internal lock, so a cache instance
    (including the process-wide :data:`DEFAULT_CACHE`) may be shared
    freely between the service worker pool, facade calls on other
    threads, and the owning thread.

    ``backing`` layers a persistent second level underneath the LRU:
    memory misses fall through to ``backing.get`` (hits are promoted
    into memory and counted as ``stats.backing_hits``) and ``put``
    writes through to ``backing.put``.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        backing: CacheBacking | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("cache needs room for at least one entry")
        self._max_entries = max_entries
        self._entries: OrderedDict[Hashable, RunResult] = OrderedDict()
        self._lock = Lock()
        self.backing = backing
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> RunResult | None:
        """The cached result for ``key``, refreshing its recency."""
        result, _ = self.get_with_source(key)
        return result

    def get_with_source(
        self, key: Hashable
    ) -> tuple[RunResult | None, str | None]:
        """Like :meth:`get`, also naming the level that served the hit.

        Returns ``(result, "memory")``, ``(result, "backing")`` or
        ``(None, None)`` — the serving layer uses the source to
        attribute hits between the LRU and the persistent store.
        """
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return result, "memory"
            if self.backing is not None:
                try:
                    result = self.backing.get(key)
                except Exception:
                    # A flaky backing degrades to a miss, never an error.
                    self.stats.backing_errors += 1
                    result = None
                if result is not None:
                    self.stats.backing_hits += 1
                    self._insert(key, result)
                    return result, "backing"
            self.stats.misses += 1
            return None, None

    def put(self, key: Hashable, result: RunResult) -> None:
        """Store ``result``, evicting the least recently used overflow."""
        with self._lock:
            self._insert(key, result)
            if self.backing is not None:
                try:
                    self.backing.put(key, result)
                except Exception:
                    # Write-through is best effort: losing persistence
                    # must not lose the in-memory entry or the result.
                    self.stats.backing_errors += 1

    def _insert(self, key: Hashable, result: RunResult) -> None:
        """Memory-level insert + eviction; caller holds the lock."""
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every in-memory entry (counters and backing are kept)."""
        with self._lock:
            self._entries.clear()


#: Process-wide cache used by ``execute(..., cache=True)``.
DEFAULT_CACHE = ResultCache()
