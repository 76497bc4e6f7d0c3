"""Job handles and lifecycle states of the execution service.

A :class:`Job` is the caller's view of one submitted run: a small
thread-safe handle that tracks the lifecycle

    QUEUED -> RUNNING -> DONE | FAILED | CANCELLED | TIMED_OUT

and blocks on :meth:`Job.result` until a worker (or a cache hit, or a
coalesced leader) completes it.  Jobs are created by
:meth:`repro.service.JobQueue.submit`; all state transitions go through
the queue, which owns the locking discipline — the handle itself only
exposes reads and blocking waits.  A handle that is terminal before
anyone waits on it (every cache hit) never allocates an event: one is
created, under a lock shared by all handles, only when a caller waits on
a still-pending handle.

Resilience surfaces on the handle (see ``docs/RESILIENCE.md``): a job
submitted with a deadline carries it here, expiry lands it in the
terminal ``TIMED_OUT`` state (``result()`` raises the typed
:class:`~repro.resilience.JobTimeoutError`), retried attempts leave
their :class:`~repro.resilience.AttemptRecord` history on
``job.attempts``, and admission-control downgrades are recorded on
``job.degraded``.
"""

from __future__ import annotations

import itertools
import threading
import time
from enum import Enum
from typing import TYPE_CHECKING

from ..exceptions import ReproError
from ..resilience.deadlines import Deadline, JobTimeoutError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..execution.results import RunResult
    from ..resilience.retry import AttemptRecord


class ServiceError(ReproError):
    """Base class of execution-service failures."""


class QueueFullError(ServiceError):
    """The bounded queue rejected a submission (backpressure)."""


class QueueClosedError(ServiceError, RuntimeError):
    """The queue is shut down or draining and refuses admissions.

    Subclasses :class:`RuntimeError` for compatibility with callers of
    the original shutdown behaviour.
    """


class JobFailedError(ServiceError):
    """The job's execution raised; carries the worker traceback."""

    def __init__(self, message: str, traceback: str | None = None) -> None:
        super().__init__(message)
        #: The worker-side ``traceback.format_exc()`` text, so failures
        #: stay diagnosable across the thread (and protocol) boundary.
        self.traceback = traceback


class JobCancelledError(ServiceError):
    """The job was cancelled before a result was produced."""


class JobState(str, Enum):
    """Lifecycle states of a submitted job."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    TIMED_OUT = "TIMED_OUT"

    @property
    def terminal(self) -> bool:
        """True once the state can no longer change."""
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMED_OUT,
        )


_JOB_IDS = itertools.count(1)

#: Orders the lazy creation of a pending handle's wait event against its
#: terminal transition.  Taken only by waiters of still-pending handles
#: and by :meth:`Job._finish`, so one lock serves every handle.
_WAITER_LOCK = threading.Lock()


class Job:
    """Handle to one submitted execution.

    Handles are cheap and thread-safe: ``state`` reads are lock-free
    snapshots, and ``result()`` on a pending handle blocks on an event
    created by its first waiter and set exactly once, at the terminal
    transition.  Several handles may share one
    underlying execution (request coalescing) — each keeps its own
    state, so cancelling a coalesced follower never disturbs its
    siblings.
    """

    def __init__(
        self,
        key: str | None,
        submitter: str = "default",
        priority: int = 0,
        label: str = "",
        deadline: Deadline | None = None,
    ) -> None:
        self.id = f"job-{next(_JOB_IDS):06d}"
        #: Coalescing key: a digest of the run identity (circuit
        #: fingerprint + run parameters), or the job's own id when the
        #: run has no identity and so shares with no other job.
        self.key = key if key is not None else self.id
        self.submitter = submitter
        self.priority = priority
        #: Human-readable description (e.g. "qutrit_tree(N=5)").
        self.label = label
        #: Cooperative expiry budget (None = unbounded).
        self.deadline = deadline
        self.state = JobState.QUEUED
        #: Cache level that served the job, when it never ran:
        #: "memory", "backing", or "coalesced"; None for executed jobs.
        self.served_from: str | None = None
        #: One record per failed attempt of a retried execution.
        self.attempts: "list[AttemptRecord]" = []
        #: Admission-control ladder steps applied at submit time.
        self.degraded: tuple[str, ...] = ()
        #: Why a CANCELLED job was cancelled (e.g. "queue shut down").
        self.cancel_reason: str | None = None
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._result: "RunResult | None" = None
        self._error: BaseException | None = None
        self._traceback: str | None = None
        #: Created by the first wait on a pending handle; None otherwise.
        self._waiter: threading.Event | None = None

    # -- queries -------------------------------------------------------

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state.terminal

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal (or ``timeout`` seconds); True if done."""
        if self.state.terminal:
            return True
        with _WAITER_LOCK:
            if self.state.terminal:
                return True
            if self._waiter is None:
                self._waiter = threading.Event()
            waiter = self._waiter
        return waiter.wait(timeout)

    def result(self, timeout: float | None = None) -> "RunResult":
        """The run's result, blocking until the job completes.

        Raises :class:`JobFailedError` (with the captured worker
        traceback) when execution failed, :class:`JobCancelledError`
        when the job was cancelled, and the typed
        :class:`~repro.resilience.JobTimeoutError` either when the job
        itself TIMED_OUT (its deadline expired) or when ``timeout``
        seconds pass without a terminal state.
        """
        if not self.wait(timeout):
            raise JobTimeoutError(
                f"{self.id} still {self.state.value} after {timeout}s"
            )
        if self.state is JobState.TIMED_OUT:
            raise JobTimeoutError(
                f"{self.id} timed out: "
                f"{self._error or 'deadline expired before completion'}"
            )
        if self.state is JobState.CANCELLED:
            reason = f" ({self.cancel_reason})" if self.cancel_reason else ""
            raise JobCancelledError(f"{self.id} was cancelled{reason}")
        if self._error is not None:
            raise JobFailedError(
                f"{self.id} failed: {self._error!r}", self._traceback
            ) from self._error
        assert self._result is not None
        return self._result

    @property
    def error(self) -> BaseException | None:
        """The exception a FAILED job captured (None otherwise)."""
        return self._error

    @property
    def traceback(self) -> str | None:
        """The captured worker traceback of a FAILED job."""
        return self._traceback

    @property
    def latency(self) -> float | None:
        """Submit-to-terminal wall-clock seconds (None while pending)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    # -- transitions (called by JobQueue under its lock) ---------------

    def _mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started_at = time.perf_counter()

    def _finish(
        self,
        state: JobState,
        result: "RunResult | None" = None,
        error: BaseException | None = None,
        traceback: str | None = None,
        reason: str | None = None,
    ) -> None:
        """Terminal transition; wakes every waiter exactly once.

        Every field is set before the state turns terminal, so a reader
        that sees a terminal state sees its result, error and timings.
        """
        if self.state.terminal:  # pragma: no cover - defensive
            return
        self._result = result
        self._error = error
        self._traceback = traceback
        if reason is not None:
            self.cancel_reason = reason
        self.finished_at = time.perf_counter()
        with _WAITER_LOCK:
            self.state = state
            waiter = self._waiter
        if waiter is not None:
            waiter.set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.label}" if self.label else ""
        return f"<Job {self.id} {self.state.value}{label}>"
