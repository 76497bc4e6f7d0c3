"""Resilience primitives for the execution service.

The serving layer's failure story lives here, deliberately free of any
dependency on :mod:`repro.service` or :mod:`repro.execution` so every
layer of the stack can import it:

* :mod:`~repro.resilience.deadlines` — cooperative time budgets and the
  one typed :class:`JobTimeoutError` every layer agrees on;
* :mod:`~repro.resilience.retry` — bounded attempts, exponential
  backoff, deterministic seeded jitter, retryable-error classification;
* :mod:`~repro.resilience.faults` — seeded chaos injection at named
  sites (:data:`INJECTION_SITES`);
* :mod:`~repro.resilience.breaker` — the three-state circuit breaker
  guarding the persistent store;
* :mod:`~repro.resilience.degradation` — admission control that
  estimates a run's memory and downgrades before it rejects.

The chaos phases (:mod:`repro.resilience.chaos`) are *not* re-exported
here: they drive the serving stack, so importing them from the package
root would create a cycle — import the module directly.

See ``docs/RESILIENCE.md`` for the full operating model.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .deadlines import Deadline, JobTimeoutError, resolve_deadline
from .degradation import (
    DEFAULT_ADMISSION,
    AdmissionDecision,
    AdmissionError,
    AdmissionPolicy,
    estimate_memory_bytes,
    state_entries,
)
from .faults import (
    INJECTION_SITES,
    FaultInjector,
    current_injector,
    injected,
    install_injector,
    maybe_inject,
)
from .retry import AttemptRecord, RetryPolicy, TransientServiceError

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "Deadline",
    "JobTimeoutError",
    "resolve_deadline",
    "DEFAULT_ADMISSION",
    "AdmissionDecision",
    "AdmissionError",
    "AdmissionPolicy",
    "estimate_memory_bytes",
    "state_entries",
    "INJECTION_SITES",
    "FaultInjector",
    "current_injector",
    "injected",
    "install_injector",
    "maybe_inject",
    "AttemptRecord",
    "RetryPolicy",
    "TransientServiceError",
]
