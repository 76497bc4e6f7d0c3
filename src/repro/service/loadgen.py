"""Zipfian load generator + the committed ``BENCH_serve.json`` suite.

The "millions of users" story made measurable: real serving traffic is
heavily skewed — a few popular circuits dominate — so the generator
draws requests from the Toffoli construction catalog with zipfian
popularity and pushes them through a live :class:`JobQueue`, measuring
what the serving layer is for:

* **throughput** (jobs/s) and **latency** (p50/p99 of submit→done);
* **coalesce rate** — identical in-flight submissions sharing one run;
* **cache hit rates** — in-memory LRU and persistent store;
* **the restart story** — phase 2 rebuilds the queue with a cold
  in-memory cache over the same store directory (a simulated process
  restart): every distinct request must come back from disk with zero
  re-executions.

Phase arithmetic is deterministic by construction, which is what the CI
gate (:func:`check_serve_regression`) checks: in phase 1 every distinct
key executes exactly once (``executed == distinct``) and every
duplicate is shared (``coalesced + memory_hits == requests -
distinct``); in phase 2 nothing executes at all.  Wall-clock numbers
are recorded but never gated.
"""

from __future__ import annotations

import platform
import tempfile
import time
from typing import Sequence

import numpy as np

from ..execution.cache import ResultCache
from .jobs import Job
from .queue import JobQueue
from .store import ResultStore

#: Schema tag of the serve report (``BENCH_serve.json``).
SERVE_SCHEMA = "repro-bench-serve/v1"

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


def run_serve_bench(
    smoke: bool = False,
    seed: int = 2019,
    workers: int = 4,
    store_dir: str | None = None,
) -> dict:
    """Run the two-phase serving bench and return the JSON-ready report.

    Phase 1 serves a zipfian workload on a fresh queue with an empty
    persistent store; phase 2 rebuilds the queue with a cold in-memory
    cache over the same store (a simulated restart) and replays the
    workload.  ``smoke`` shrinks the catalog and request count so CI
    finishes in seconds.
    """
    catalog = default_catalog(smoke)
    requests = 80 if smoke else 400
    workload = zipf_workload(len(catalog), requests, seed=seed)
    distinct = len(set(workload))

    def phase(store: ResultStore) -> dict:
        with JobQueue(
            workers=workers, cache=ResultCache(backing=store),
        ) as queue:
            return run_phase(queue, catalog, workload)

    with tempfile.TemporaryDirectory() as scratch:
        root = store_dir or scratch
        phase1 = phase(ResultStore(root))
        # Restart simulation: new process state (cold LRU, cold queue),
        # warm disk.
        phase2 = phase(ResultStore(root))

    return {
        "schema": SERVE_SCHEMA,
        "generated_by": "python -m repro bench --suite serve"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "seed": seed,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "workload": {
            "requests": requests,
            "catalog_size": len(catalog),
            "distinct_keys": distinct,
            "zipf_s": 1.1,
            "submitters": list(SUBMITTERS),
            "workers": workers,
        },
        "phase1_cold": phase1,
        "phase2_restart": phase2,
        "headline": {
            "executed_exactly_once": phase1["executed"] == distinct,
            "restart_executions": phase2["executed"],
            "restart_served_from_store": phase2["persistent_hits"],
        },
    }


def render_serve_report(report: dict) -> str:
    """Human-readable summary of :func:`run_serve_bench` output."""
    workload = report["workload"]
    lines = [
        f"serve bench ({'smoke' if report['smoke'] else 'full'}, "
        f"seed {report['seed']})",
        "",
        f"workload: {workload['requests']} zipfian requests over "
        f"{workload['catalog_size']} catalog entries "
        f"({workload['distinct_keys']} distinct), "
        f"{workload['workers']} workers",
    ]
    for name, phase in (
        ("phase 1 (cold store)", report["phase1_cold"]),
        ("phase 2 (restart)", report["phase2_restart"]),
    ):
        lines += [
            "",
            f"{name}:",
            f"  throughput {phase['throughput_jobs_per_second']:8.1f} "
            f"jobs/s   p50 {phase['p50_ms']:7.2f} ms   "
            f"p99 {phase['p99_ms']:7.2f} ms",
            f"  executed {phase['executed']:4d}   "
            f"coalesced {phase['coalesced']:4d}   "
            f"memory hits {phase['memory_hits']:4d}   "
            f"store hits {phase['persistent_hits']:4d}",
            f"  shared rate {phase['shared_rate'] * 100:5.1f}%   "
            f"cache hit rate {phase['cache_hit_rate'] * 100:5.1f}%",
        ]
    headline = report["headline"]
    lines += [
        "",
        f"exactly-once: {headline['executed_exactly_once']}   "
        f"restart executions: {headline['restart_executions']}",
    ]
    return "\n".join(lines)


def check_serve_regression(committed: dict, fresh: dict) -> list[str]:
    """The CI gate over a fresh serve report.

    Checks the deterministic sharing invariants of the fresh run —
    exactly-once execution in phase 1, zero executions after the
    simulated restart — and, when the committed baseline ran the same
    workload (same seed/requests), that the sharing arithmetic matches
    it.  Timing metrics are never gated.  Returns failure messages
    (empty = pass).
    """
    failures = []
    workload = fresh["workload"]
    phase1 = fresh["phase1_cold"]
    phase2 = fresh["phase2_restart"]
    distinct = workload["distinct_keys"]
    requests = workload["requests"]

    if phase1["executed"] != distinct:
        failures.append(
            f"phase 1 executed {phase1['executed']} runs for "
            f"{distinct} distinct keys (exactly-once violated)"
        )
    shared = phase1["coalesced"] + phase1["memory_hits"]
    if shared != requests - distinct:
        failures.append(
            f"phase 1 shared {shared} duplicates, expected "
            f"{requests - distinct} (coalescing/cache leak)"
        )
    if phase2["executed"] != 0:
        failures.append(
            f"phase 2 re-executed {phase2['executed']} runs after the "
            f"simulated restart (persistent store not serving)"
        )
    if phase2["persistent_hits"] != distinct:
        failures.append(
            f"phase 2 served {phase2['persistent_hits']} keys from the "
            f"store, expected {distinct}"
        )

    same_workload = (
        committed.get("seed") == fresh.get("seed")
        and committed.get("workload", {}).get("requests") == requests
        and committed.get("workload", {}).get("catalog_size")
        == workload["catalog_size"]
    )
    if same_workload:
        baseline = committed["workload"]["distinct_keys"]
        if baseline != distinct:
            failures.append(
                f"distinct-key count drifted: committed {baseline}, "
                f"fresh {distinct} (workload no longer reproducible)"
            )
    return failures
