"""The chaos phases: zipfian load under injected faults, then
corrupted store entries (the ``chaos`` bench suite).

The resilience layer's claims — no handle is ever lost, retries are
capped, coalesced groups see exactly one fan-out, the store never
serves a corrupt payload — are only worth committing to if they hold
*under* failure.  :func:`chaos_phase` drives the full serving stack
(queue, workers, retry policy, circuit breaker, persistent store)
through a zipfian workload while a seeded
:class:`~repro.resilience.FaultInjector` fires at every wired site;
:func:`corruption_phase` then re-runs the workload against a store with
deliberately corrupted entries.  Each phase returns its counts and the
invariants it claims, which hold regardless of thread interleaving:

* **no lost handles** — every submitted job reaches a terminal state;
* **conservation** — DONE + FAILED + TIMED_OUT + CANCELLED equals the
  number of submissions;
* **retries capped** — no group records more attempts than the policy
  allows;
* **only injected failures** — every FAILED job carries the injected
  :class:`~repro.resilience.TransientServiceError`, nothing real broke;
* **exactly-once fan-out** — every handle of a coalesced group received
  the *identical* result object of its one successful execution;
* **corruption containment** — each corrupted store entry is dropped on
  first read (counted once), its job transparently re-executes, and no
  corrupt payload is ever served.

The counts themselves (injections, retries, per-state tallies) depend
on thread interleaving and are recorded, never gated; see
:mod:`repro.analysis.bench`.
"""

from __future__ import annotations

import time
from pathlib import Path

from .breaker import CircuitBreaker
from .faults import FaultInjector, injected
from .retry import RetryPolicy, TransientServiceError

#: Deadline attached to every third submission in the chaos phase —
#: generous enough never to expire, so the deadline *plumbing* (budget
#: threading through retries into the facade) is exercised on every run
#: without making the gated outcome racy.
_EXERCISE_DEADLINE = 300.0


def _run_workload(queue, catalog, workload, deadlines: bool) -> list:
    """Submit the whole workload and wait every handle terminal."""
    from ..service.loadgen import SUBMITTERS

    jobs = []
    for position, index in enumerate(workload):
        entry = dict(catalog[index])
        target = entry.pop("target")
        build = entry.pop("build", {})
        if deadlines and position % 3 == 0:
            entry["deadline"] = _EXERCISE_DEADLINE
        jobs.append(queue.submit(
            target,
            submitter=SUBMITTERS[position % len(SUBMITTERS)],
            **entry, **build,
        ))
    for job in jobs:
        job.wait(timeout=300)
    return jobs


def _state_counts(jobs) -> dict:
    counts: dict[str, int] = {}
    for job in jobs:
        counts[job.state.value] = counts.get(job.state.value, 0) + 1
    return counts


def _exactly_once_fanout(jobs) -> bool:
    """Every DONE handle of a group aliases its one execution's result.

    Handles of the same group share one attempts-list object (the
    queue aliases it on attach), which identifies the group without
    reaching into queue internals; cache-hit handles each carry their
    own empty list and form trivial singleton groups.
    """
    by_group: dict[int, list] = {}
    for job in jobs:
        by_group.setdefault(id(job.attempts), []).append(job)
    for group in by_group.values():
        done = [job for job in group if job.state.value == "DONE"]
        if len(done) > 1:
            first = done[0].result()
            if any(job.result() is not first for job in done[1:]):
                return False
    return True


def chaos_phase(
    root: str,
    catalog,
    workload,
    *,
    workers: int,
    rate: float,
    seed: int,
) -> tuple[dict, dict]:
    """Phase 1: the full stack under injected faults at every site."""
    from ..execution.cache import ResultCache
    from ..service.queue import JobQueue
    from ..service.store import ResultStore

    injector = FaultInjector(rate=rate, seed=seed)
    policy = RetryPolicy(
        max_attempts=4, base_delay=0.001, max_delay=0.01, seed=seed,
    )
    store = ResultStore(
        root,
        breaker=CircuitBreaker(failure_threshold=5, reset_timeout=0.05),
        fault_injector=injector,
    )
    start = time.perf_counter()
    with injected(injector):  # facade.task reads the ambient injector
        with JobQueue(
            workers=workers,
            cache=ResultCache(backing=store),
            retry_policy=policy,
            fault_injector=injector,
        ) as queue:
            jobs = _run_workload(queue, catalog, workload, deadlines=True)
            stats = queue.stats_snapshot()
    elapsed = time.perf_counter() - start

    counts = _state_counts(jobs)
    terminal = sum(counts.values())
    max_attempts_seen = max(
        (len(job.attempts) for job in jobs), default=0
    )
    failed_jobs = [job for job in jobs if job.state.value == "FAILED"]
    invariants = {
        "no_lost_handles": all(job.done() for job in jobs),
        "conservation": terminal == len(jobs)
        and sum(
            counts.get(state, 0)
            for state in ("DONE", "FAILED", "TIMED_OUT", "CANCELLED")
        ) == len(jobs),
        "retries_capped": max_attempts_seen <= policy.max_attempts,
        "only_injected_failures": all(
            isinstance(job.error, TransientServiceError)
            for job in failed_jobs
        ),
        "exactly_once_fanout": _exactly_once_fanout(jobs),
    }
    phase = {
        "requests": len(jobs),
        "elapsed_seconds": elapsed,
        "states": counts,
        "executed": stats.executed,
        "retries": stats.retries,
        "timed_out": stats.timed_out,
        "coalesced": stats.coalesced,
        "memory_hits": stats.memory_hits,
        "persistent_hits": stats.persistent_hits,
        "max_attempts_observed": max_attempts_seen,
        "retry_policy": {
            "max_attempts": policy.max_attempts,
            "base_delay": policy.base_delay,
            "max_delay": policy.max_delay,
            "seed": policy.seed,
        },
        "store": store.stats.to_dict(),
        "breaker": store.breaker.to_dict(),
        "faults": injector.to_dict(),
    }
    return phase, invariants


def corruption_phase(
    root: str, catalog, workload, *, workers: int, distinct: int
) -> tuple[dict, dict]:
    """Phase 2: deliberately corrupt store entries, replay fault-free.

    Each corrupted file must be dropped exactly once (its first
    lookup), its key transparently re-executed, and every handle must
    end DONE — corruption is contained, never served.  Keys whose
    phase-1 write was lost to an injected ``store.write`` fault are
    also expected to re-execute (write-through is best effort).
    """
    from ..execution.cache import ResultCache
    from ..service.queue import JobQueue
    from ..service.store import ResultStore

    entries = sorted(Path(root).glob("*.json"))
    missing = max(0, distinct - len(entries))
    corrupted = entries[: min(5, len(entries))]
    for path in corrupted:
        path.write_text('{"schema": "garbage", "payload": 7')  # truncated

    store = ResultStore(root)
    start = time.perf_counter()
    with JobQueue(
        workers=workers, cache=ResultCache(backing=store),
    ) as queue:
        jobs = _run_workload(queue, catalog, workload, deadlines=False)
        stats = queue.stats_snapshot()
    elapsed = time.perf_counter() - start

    counts = _state_counts(jobs)
    invariants = {
        "corrupt_dropped_exactly_once":
            store.stats.corrupt_dropped == len(corrupted),
        "corrupt_never_served": counts.get("DONE", 0) == len(jobs),
        "corrupt_reexecuted":
            stats.executed == len(corrupted) + missing,
    }
    phase = {
        "requests": len(jobs),
        "elapsed_seconds": elapsed,
        "states": counts,
        "corrupted_entries": len(corrupted),
        "missing_entries": missing,
        "executed": stats.executed,
        "coalesced": stats.coalesced,
        "memory_hits": stats.memory_hits,
        "persistent_hits": stats.persistent_hits,
        "store": store.stats.to_dict(),
    }
    return phase, invariants
