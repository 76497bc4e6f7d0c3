"""The execution service: an async job queue over :func:`repro.execute`.

The serving layer the ROADMAP's north star asks for — exhaustive
verification sweeps, fidelity campaigns and routing studies served to
many concurrent clients::

    from repro.service import JobQueue, ResultStore

    with JobQueue(workers=4, store=ResultStore(".repro-store")) as queue:
        job = queue.submit("qutrit_tree", num_controls=5,
                           backend="classical",
                           initial=(1, 1, 1, 1, 1, 0))
        print(queue.status(job))        # QUEUED / RUNNING / DONE ...
        print(job.result().values)

Identical in-flight submissions coalesce into one execution (keyed on
the circuit's canonical fingerprint plus its run parameters), finished
results persist across processes through the content-addressed
:class:`ResultStore`, submitters are scheduled fairly (round-robin with
aging priorities), and the bounded queue applies reject-or-block
backpressure.  ``python -m repro serve`` exposes the same queue over a
line-delimited JSON protocol; see :mod:`repro.service.protocol` and
``docs/SERVICE.md``.

The service degrades gracefully under failure — per-job deadlines,
retries with deterministic backoff, a circuit breaker on the
persistent store, admission control, and seeded fault injection all
come from :mod:`repro.resilience`; see ``docs/RESILIENCE.md``.
"""

from ..resilience import (
    AdmissionError,
    AdmissionPolicy,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    JobTimeoutError,
    RetryPolicy,
    TransientServiceError,
)
from .jobs import (
    Job,
    JobCancelledError,
    JobFailedError,
    JobState,
    QueueClosedError,
    QueueFullError,
    ServiceError,
)
from .loadgen import default_catalog, zipf_workload
from .protocol import (
    PROTOCOL,
    handle_request,
    serve_lines,
    serve_socket,
    serve_stdio,
)
from .queue import JobQueue, JobRequest, ServiceStats, default_runner
from .scheduler import FairScheduler
from .serialization import (
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from .store import ResultStore, StoreStats

__all__ = [
    "Job",
    "JobState",
    "JobQueue",
    "JobRequest",
    "ServiceStats",
    "ServiceError",
    "QueueFullError",
    "QueueClosedError",
    "JobFailedError",
    "JobCancelledError",
    "JobTimeoutError",
    "Deadline",
    "RetryPolicy",
    "TransientServiceError",
    "FaultInjector",
    "CircuitBreaker",
    "AdmissionPolicy",
    "AdmissionError",
    "FairScheduler",
    "ResultStore",
    "StoreStats",
    "default_runner",
    "result_to_dict",
    "result_from_dict",
    "result_to_json",
    "result_from_json",
    "PROTOCOL",
    "handle_request",
    "serve_lines",
    "serve_stdio",
    "serve_socket",
    "default_catalog",
    "zipf_workload",
]
