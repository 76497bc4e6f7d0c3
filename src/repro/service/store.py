"""Persistent, content-addressed on-disk result store.

Each entry is one JSON file named by the SHA-256 digest of the
canonical cache-key encoding (see
:func:`~repro.execution.cache.cache_key_encoding`), holding the
serialized :class:`~repro.execution.results.RunResult` plus enough
envelope to validate it on the way back in.  The store implements the
:class:`~repro.execution.cache.CacheBacking` protocol, so it can sit
directly underneath the facade's in-memory LRU::

    from repro.execution import ResultCache
    from repro.service import ResultStore

    cache = ResultCache(backing=ResultStore("~/.cache/repro"))
    execute(..., cache=cache)      # results now survive the process

Design points:

* **Corruption tolerance** — a truncated, hand-edited, or
  schema-mismatched file is treated as a miss, deleted, and counted in
  ``stats.corrupt_dropped``; the store never raises on load.
* **Upgrades** — an entry in a known older envelope (``v1``, written
  before the trajectory engine's RNG stream moved and while shots
  results still carried their state) is a plain miss: deleted, counted
  in ``stats.stale_dropped``, and, like any plain miss, a healthy disk
  answer to the breaker, so a warm store of old entries cannot trip it.
* **Bounded size** — ``max_bytes`` / ``max_entries`` caps are enforced
  after every write by evicting the least recently *used* files, so a
  long-lived serve process cannot grow the cache dir without bound.
  Recency and sizes live in an in-memory index (one directory scan, at
  construction, ordered by file mtime), so a write costs O(1) instead
  of a rescan of the directory.  Access still bumps the file mtime, so
  a restarted store recovers the order.  The index assumes one live
  process writes a store directory at a time.
* **Write-through safety** — entries are written to a temp file and
  atomically renamed, so a crash mid-write never leaves a half entry
  under a valid name.
* **Failure containment** — an optional
  :class:`~repro.resilience.CircuitBreaker` wraps the disk: corruption
  and IO errors count as failures, a tripped breaker short-circuits
  lookups/writes to fast misses (the queue keeps serving from its
  in-memory LRU and re-executing), and half-open probes heal it.  The
  ``store.read`` / ``store.write`` chaos sites inject here; injected
  faults are absorbed exactly like real IO errors — counted, fed to
  the breaker, never propagated to callers.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Hashable

from ..exceptions import SerializationError
from ..execution.cache import cache_key_digest, cache_key_encoding
from ..execution.results import RunResult
from ..resilience.breaker import CircuitBreaker
from ..resilience.faults import FaultInjector, maybe_inject
from ..resilience.retry import TransientServiceError
from .serialization import result_from_dict, result_to_dict

#: Version tag of the store's on-disk entry envelope.
STORE_SCHEMA = "repro-result-store/v2"

#: Envelopes of earlier versions: read as plain misses, not corruption.
STALE_SCHEMAS = frozenset({"repro-result-store/v1"})


@dataclass
class StoreStats:
    """Counters for one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_failures: int = 0
    evictions: int = 0
    corrupt_dropped: int = 0
    #: Entries in an older envelope, dropped as plain misses.
    stale_dropped: int = 0
    #: Disk-level failures (reads and writes), real or injected —
    #: excludes plain misses and serialization failures.
    io_errors: int = 0
    #: Lookups/writes refused up front by an open circuit breaker.
    short_circuited: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-ready snapshot including the derived rate (surfaced by
        ``JobQueue.describe()`` and the protocol ``stats`` op)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "write_failures": self.write_failures,
            "evictions": self.evictions,
            "corrupt_dropped": self.corrupt_dropped,
            "stale_dropped": self.stale_dropped,
            "io_errors": self.io_errors,
            "short_circuited": self.short_circuited,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


class ResultStore:
    """Content-addressed JSON result entries under one cache directory."""

    def __init__(
        self,
        root: str | Path,
        max_bytes: int = 64 * 1024 * 1024,
        max_entries: int = 4096,
        breaker: CircuitBreaker | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("store needs room for at least one entry")
        if max_bytes < 1:
            raise ValueError("store needs a positive byte budget")
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = StoreStats()
        #: Optional circuit breaker guarding the disk (None = always on).
        self.breaker = breaker
        self._fault_injector = fault_injector
        self._lock = Lock()
        #: entry file name -> size in bytes, least recently used first.
        self._index: OrderedDict[str, int] = OrderedDict()
        self._index_bytes = 0
        self._scan()

    def _disk_ok(self) -> None:
        if self.breaker is not None:
            self.breaker.record_success()

    def _disk_failed(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    # -- paths ---------------------------------------------------------

    def path_for(self, key: Hashable) -> Path:
        """The entry file a key maps to (existing or not)."""
        return self.root / f"{cache_key_digest(key)}.json"

    def _entries(self) -> list[Path]:
        return list(self.root.glob("*.json"))

    def _scan(self) -> None:
        """Index the entries already on disk, oldest mtime first."""
        found = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced unlink
                continue
            found.append((stat.st_mtime, stat.st_size, path.name))
        for _, size, name in sorted(found):
            self._index[name] = size
            self._index_bytes += size

    def _forget(self, name: str) -> None:
        size = self._index.pop(name, None)
        if size is not None:
            self._index_bytes -= size

    def _touch(self, name: str, size: int) -> None:
        """Record ``name`` (``size`` bytes) as the most recently used."""
        self._forget(name)
        self._index[name] = size
        self._index_bytes += size

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        """Current on-disk footprint of all entries."""
        return sum(p.stat().st_size for p in self._entries())

    # -- CacheBacking protocol -----------------------------------------

    def get(self, key: Hashable) -> RunResult | None:
        """Load the stored result for ``key``; None on miss, corruption,
        IO error (real or injected), or while the breaker is open."""
        path = self.path_for(key)
        with self._lock:
            if self.breaker is not None and not self.breaker.allow():
                self.stats.short_circuited += 1
                self.stats.misses += 1
                return None
            try:
                maybe_inject("store.read", self._fault_injector)
                raw = path.read_text()
            except FileNotFoundError:
                # A genuine miss is a *healthy* disk answer.
                self._forget(path.name)
                self._disk_ok()
                self.stats.misses += 1
                return None
            except (OSError, TransientServiceError):
                self._disk_failed()
                self.stats.io_errors += 1
                self.stats.misses += 1
                return None
            try:
                envelope = json.loads(raw)
                if envelope.get("schema") in STALE_SCHEMAS:
                    # Written by an earlier release: a healthy disk
                    # answering with an entry this release never serves.
                    path.unlink(missing_ok=True)
                    self._forget(path.name)
                    self._disk_ok()
                    self.stats.stale_dropped += 1
                    self.stats.misses += 1
                    return None
                if envelope.get("schema") != STORE_SCHEMA:
                    raise SerializationError(
                        f"unknown store schema {envelope.get('schema')!r}"
                    )
                if envelope.get("key") != cache_key_encoding(key):
                    # Digest collision or a file moved between stores:
                    # never serve somebody else's result.
                    raise SerializationError("entry key mismatch")
                result = result_from_dict(envelope["payload"])
            except (
                SerializationError,
                json.JSONDecodeError,
                KeyError,
                TypeError,
                ValueError,
            ):
                # Treat any malformed entry as a miss and drop the file
                # so it cannot poison later lookups; corruption counts
                # against the disk's health.
                path.unlink(missing_ok=True)
                self._forget(path.name)
                self._disk_failed()
                self.stats.corrupt_dropped += 1
                self.stats.misses += 1
                return None
            # Recency bump for eviction ordering (the mtime carries it
            # across restarts).
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - best effort
                pass
            if path.name in self._index:
                self._index.move_to_end(path.name)
            else:  # written behind this store's back
                self._touch(path.name, len(raw.encode()))
            self._disk_ok()
            self.stats.hits += 1
            return result

    def put(self, key: Hashable, result: RunResult) -> bool:
        """Persist ``result`` under ``key``; False if unserializable,
        on IO failure (real or injected), or while the breaker is open."""
        path = self.path_for(key)
        with self._lock:
            if self.breaker is not None and not self.breaker.allow():
                self.stats.short_circuited += 1
                return False
            try:
                envelope = {
                    "schema": STORE_SCHEMA,
                    "key": cache_key_encoding(key),
                    "stored_at": time.time(),
                    "payload": result_to_dict(result),
                }
                data = json.dumps(envelope).encode()
            except (SerializationError, TypeError, ValueError):
                # Unserializable payloads say nothing about the disk:
                # counted, but never fed to the breaker.
                self.stats.write_failures += 1
                return False
            temp = path.with_suffix(".tmp")
            try:
                maybe_inject("store.write", self._fault_injector)
                temp.write_bytes(data)
                temp.replace(path)
            except (OSError, TransientServiceError):
                temp.unlink(missing_ok=True)
                self._disk_failed()
                self.stats.write_failures += 1
                self.stats.io_errors += 1
                return False
            self._disk_ok()
            self.stats.writes += 1
            self._touch(path.name, len(data))
            self._evict_overflow()
            return True

    # -- maintenance ---------------------------------------------------

    def _evict_overflow(self) -> None:
        """Delete least-recently-used entries until under both caps."""
        index = self._index
        while index and (
            len(index) > self.max_entries
            or self._index_bytes > self.max_bytes
        ):
            name, size = index.popitem(last=False)
            self._index_bytes -= size
            (self.root / name).unlink(missing_ok=True)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Delete every entry (counters are kept)."""
        with self._lock:
            for path in self._entries():
                path.unlink(missing_ok=True)
            self._index.clear()
            self._index_bytes = 0
