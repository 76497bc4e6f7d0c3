"""The chaos bench: zipfian load under injected faults, gated on
deterministic invariants (``BENCH_chaos.json``).

The resilience layer's claims — no handle is ever lost, retries are
capped, coalesced groups see exactly one fan-out, the store never
serves a corrupt payload — are only worth committing to if they hold
*under* failure.  This bench drives the full serving stack (queue,
workers, retry policy, circuit breaker, persistent store) through a
zipfian workload while a seeded :class:`~repro.resilience.FaultInjector`
fires at every wired site, then re-runs the workload against a store
with deliberately corrupted entries.

Like the serve bench, wall-clock numbers are recorded but **never
gated** — CI checks only invariants that are deterministic regardless
of thread interleaving:

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
"""

from __future__ import annotations

import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from .breaker import CircuitBreaker
from .faults import FaultInjector, injected
from .retry import RetryPolicy, TransientServiceError

#: Schema tag of the chaos report (``BENCH_chaos.json``).
CHAOS_SCHEMA = "repro-bench-chaos/v1"

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


def _chaos_phase(
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


def _corruption_phase(
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


def run_chaos_bench(
    smoke: bool = False,
    seed: int = 2019,
    workers: int = 4,
    rate: float = 0.2,
    store_dir: str | None = None,
) -> dict:
    """Run the two-phase chaos bench and return the JSON-ready report.

    Phase 1 pushes a zipfian workload through a queue whose every
    injection site fires with probability ``rate`` (seeded, so the
    per-site fault sequences are reproducible); phase 2 corrupts store
    entries and replays fault-free.  ``smoke`` shrinks the workload so
    CI finishes in seconds.
    """
    from ..service.loadgen import default_catalog, zipf_workload

    catalog = default_catalog(smoke=True)
    requests = 60 if smoke else 150
    workload = zipf_workload(len(catalog), requests, seed=seed)
    distinct = len(set(workload))

    with tempfile.TemporaryDirectory() as scratch:
        root = store_dir or scratch
        chaos, chaos_inv = _chaos_phase(
            root, catalog, workload,
            workers=workers, rate=rate, seed=seed,
        )
        corruption, corrupt_inv = _corruption_phase(
            root, catalog, workload, workers=workers, distinct=distinct,
        )

    invariants = {**chaos_inv, **corrupt_inv}
    invariants["all_pass"] = all(invariants.values())
    return {
        "schema": CHAOS_SCHEMA,
        "generated_by": "python -m repro bench --suite chaos"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "seed": seed,
        "rate": rate,
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
            "workers": workers,
        },
        "chaos_phase": chaos,
        "corruption_phase": corruption,
        "invariants": invariants,
    }


def render_chaos_report(report: dict) -> str:
    """Human-readable summary of :func:`run_chaos_bench` output."""
    workload = report["workload"]
    chaos = report["chaos_phase"]
    corruption = report["corruption_phase"]
    invariants = report["invariants"]
    faults = chaos["faults"]
    lines = [
        f"chaos bench ({'smoke' if report['smoke'] else 'full'}, "
        f"seed {report['seed']}, fault rate {report['rate']})",
        "",
        f"workload: {workload['requests']} zipfian requests over "
        f"{workload['catalog_size']} catalog entries "
        f"({workload['distinct_keys']} distinct), "
        f"{workload['workers']} workers",
        "",
        "chaos phase:",
        f"  states {chaos['states']}",
        f"  executed {chaos['executed']}   retries {chaos['retries']}   "
        f"max attempts {chaos['max_attempts_observed']}",
        f"  injections {faults['injections']}",
        f"  breaker {chaos['breaker']['state']} "
        f"(opens {chaos['breaker']['opens']}, "
        f"refusals {chaos['breaker']['refusals']})",
        "",
        "corruption phase:",
        f"  corrupted {corruption['corrupted_entries']}   "
        f"dropped {corruption['store']['corrupt_dropped']}   "
        f"re-executed {corruption['executed']}",
        "",
        "invariants:",
    ]
    lines += [
        f"  {name}: {'PASS' if value else 'FAIL'}"
        for name, value in invariants.items()
        if name != "all_pass"
    ]
    lines.append(
        f"all invariants: {'PASS' if invariants['all_pass'] else 'FAIL'}"
    )
    return "\n".join(lines)


def check_chaos_regression(committed: dict, fresh: dict) -> list[str]:
    """The CI gate over a fresh chaos report.

    Every invariant of the fresh run must hold, and when the committed
    baseline ran the same configuration (seed/rate/requests), the
    distinct-key count must not have drifted.  Timing and injection
    counts are never gated.  Returns failure messages (empty = pass).
    """
    failures = []
    if fresh.get("schema") != CHAOS_SCHEMA:
        failures.append(
            f"unexpected chaos report schema {fresh.get('schema')!r}"
        )
        return failures
    for name, value in fresh["invariants"].items():
        if name != "all_pass" and not value:
            failures.append(f"chaos invariant violated: {name}")
    same_config = (
        committed.get("seed") == fresh.get("seed")
        and committed.get("rate") == fresh.get("rate")
        and committed.get("workload", {}).get("requests")
        == fresh["workload"]["requests"]
    )
    if same_config:
        baseline = committed["workload"]["distinct_keys"]
        distinct = fresh["workload"]["distinct_keys"]
        if baseline != distinct:
            failures.append(
                f"distinct-key count drifted: committed {baseline}, "
                f"fresh {distinct} (workload no longer reproducible)"
            )
    return failures
