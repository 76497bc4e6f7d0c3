"""Zipfian load generator for the serving layer.

Real serving traffic is heavily skewed — a few popular circuits
dominate — so the generator draws requests from the Toffoli
construction catalog with zipfian popularity (:func:`zipf_workload`)
and pushes them through a live :class:`JobQueue` (:func:`run_phase`),
measuring what the serving layer is for:

* **throughput** (jobs/s) and **latency** (p50/p99 of submit→done);
* **coalesce rate** — identical in-flight submissions sharing one run;
* **cache hit rates** — in-memory LRU and persistent store.

The ``serve`` and ``chaos`` bench suites (:mod:`repro.analysis.bench`)
and the request benchmark drive it.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .jobs import Job
from .queue import JobQueue

#: Fairness buckets the generator cycles submissions over.
SUBMITTERS: tuple[str, ...] = ("alice", "bob", "carol", "dave")


def default_catalog(smoke: bool = False) -> list[dict]:
    """The request catalog: distinct (construction, run-config) pairs.

    Every entry is deterministic (noise-free backends, or seeded
    trajectory runs), so results are cacheable and the restart phase
    can be served entirely from the persistent store.  Entries mix the
    backends so the store round-trips every payload family.
    """
    catalog: list[dict] = []
    tree_widths = (3, 4) if smoke else (3, 4, 5, 6)
    for n in tree_widths:
        catalog.append(dict(
            target="qutrit_tree", backend="statevector",
            build={"num_controls": n},
        ))
        catalog.append(dict(
            target="qutrit_tree", backend="classical",
            build={"num_controls": n},
            initial=tuple([1] * n + [0]),
        ))
    for n in (3,) if smoke else (3, 4):
        catalog.append(dict(
            target="qubit_ancilla_free", backend="statevector",
            build={"num_controls": n},
        ))
        catalog.append(dict(
            target="qubit_one_dirty", backend="classical",
            build={"num_controls": n},
            initial=tuple([1] * n + [0, 0]),
        ))
    # Seeded noisy estimates: the expensive tail of the catalog, and
    # the FidelityResult round-trip through the store.
    from ..noise.presets import SC

    for n in (3,) if smoke else (3, 4):
        catalog.append(dict(
            target="qutrit_tree", backend="trajectory", noise_model=SC,
            build={"num_controls": n},
            trials=10 if smoke else 25, seed=2019,
        ))
    return catalog


def zipf_workload(
    catalog_size: int,
    requests: int,
    s: float = 1.1,
    seed: int = 2019,
) -> list[int]:
    """Catalog indices for ``requests`` draws with zipfian popularity.

    Rank ``r`` (0-based) is drawn with probability proportional to
    ``1 / (r + 1) ** s`` — the classic web-traffic skew.  Deterministic
    for a fixed seed, so committed and CI runs sample the same stream.
    """
    if catalog_size < 1:
        raise ValueError("catalog must not be empty")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, catalog_size + 1, dtype=float) ** s
    weights /= weights.sum()
    return [int(i) for i in rng.choice(catalog_size, size=requests,
                                       p=weights)]


def _percentile_ms(latencies: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1000.0)


def run_phase(
    queue: JobQueue,
    catalog: Sequence[dict],
    workload: Sequence[int],
) -> dict:
    """Submit the whole workload, wait it out, and report the phase."""
    jobs: list[Job] = []
    start = time.perf_counter()
    for position, index in enumerate(workload):
        entry = dict(catalog[index])
        target = entry.pop("target")
        build = entry.pop("build", {})
        jobs.append(queue.submit(
            target,
            submitter=SUBMITTERS[position % len(SUBMITTERS)],
            **entry, **build,
        ))
    for job in jobs:
        job.result(timeout=300)
    elapsed = time.perf_counter() - start
    latencies = [job.latency for job in jobs]
    stats = queue.stats_snapshot()
    return {
        "requests": len(jobs),
        "elapsed_seconds": elapsed,
        "throughput_jobs_per_second": len(jobs) / elapsed,
        "p50_ms": _percentile_ms(latencies, 50),
        "p99_ms": _percentile_ms(latencies, 99),
        "mean_ms": float(np.mean(latencies) * 1000.0),
        "executed": stats.executed,
        "coalesced": stats.coalesced,
        "memory_hits": stats.memory_hits,
        "persistent_hits": stats.persistent_hits,
        "coalesce_rate": stats.coalesce_rate,
        "cache_hit_rate": stats.cache_hit_rate,
        "shared_rate": stats.shared_rate,
    }
