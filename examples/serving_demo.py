"""The execution service under a zipfian workload.

Run:  PYTHONPATH=src python examples/serving_demo.py

Shows the serving layer end to end:
1. stand up a :class:`JobQueue` with a persistent result store,
2. push a zipf-skewed request stream (a few popular circuits dominate,
   like real serving traffic) from four submitters,
3. read the throughput / latency / sharing summary — every distinct
   request executes exactly once, every duplicate coalesces or hits a
   cache,
4. "restart" the service (cold in-memory cache, same store directory)
   and replay the workload: zero executions, everything served from
   disk.

The CLI equivalents are ``python -m repro serve`` (the live service)
and ``python -m repro bench --suite serve`` (the committed
``BENCH_serve.json``).
"""

from __future__ import annotations

import tempfile

from repro.execution import ResultCache
from repro.service import (
    JobQueue,
    ResultStore,
    default_catalog,
    zipf_workload,
)

REQUESTS = 120
WORKERS = 4
SUBMITTERS = ("alice", "bob", "carol", "dave")


def serve_workload(queue: JobQueue, catalog, workload) -> None:
    jobs = []
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
    latencies = sorted(job.latency for job in jobs)
    stats = queue.stats_snapshot()
    print(f"  {len(jobs)} requests: "
          f"p50 {latencies[len(jobs) // 2] * 1000:.2f} ms, "
          f"max {latencies[-1] * 1000:.2f} ms")
    print(f"  executed {stats.executed}, coalesced {stats.coalesced}, "
          f"memory hits {stats.memory_hits}, "
          f"store hits {stats.persistent_hits}")
    print(f"  shared rate {stats.shared_rate * 100:.1f}% "
          f"(cache hit rate {stats.cache_hit_rate * 100:.1f}%)")


def main() -> None:
    catalog = default_catalog(smoke=True)
    workload = zipf_workload(len(catalog), REQUESTS, seed=7)
    distinct = len(set(workload))
    print(f"zipfian workload: {REQUESTS} requests over {len(catalog)} "
          f"catalog entries ({distinct} distinct), "
          f"{len(SUBMITTERS)} submitters, {WORKERS} workers")

    with tempfile.TemporaryDirectory() as store_dir:
        print("\nphase 1 — cold store:")
        with JobQueue(workers=WORKERS,
                      store=ResultStore(store_dir)) as queue:
            serve_workload(queue, catalog, workload)
            assert queue.stats.executed == distinct  # exactly once

        print("\nphase 2 — simulated restart (cold cache, warm store):")
        with JobQueue(workers=WORKERS,
                      cache=ResultCache(backing=ResultStore(store_dir)),
                      ) as queue:
            serve_workload(queue, catalog, workload)
            assert queue.stats.executed == 0  # everything from disk

    print("\nevery distinct circuit ran exactly once; the restart "
          "re-executed nothing.")


if __name__ == "__main__":
    main()
