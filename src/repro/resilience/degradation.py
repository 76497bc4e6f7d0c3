"""Graceful degradation: admission control over estimated memory.

An OOM kill is the worst failure mode a serving process has — it takes
every in-flight job down with the one that was too big.  Admission
control converts that into an *upfront, typed* decision: the footprint
of a run is estimated in closed form from the circuit's wire dimensions
(state vectors are ``prod(dims)`` complex amplitudes, density matrices
the square of that, batched trajectories a ``batch x state`` stack, and
``parallel=True`` multiplies by the worker count), and a request that
would blow the budget is **downgraded** down a ladder of cheaper
execution modes before it is ever **rejected**:

1. ``parallel=True -> parallel=False`` — one process image instead of
   ``workers`` of them;
2. batched trajectories -> ``batch_size=1`` — one-row chunks hold one
   noisy state and its noise-free reference at a time (the step keeps
   its historical name, ``batched-to-looped``);
3. still over budget -> :class:`AdmissionError` (a clean, immediate,
   retryable-by-a-smaller-request failure — not an OOM).

Estimates are deliberately closed-form and conservative-but-simple:
they cover the dominant allocation (the state/stack itself, at 16
bytes per complex128 amplitude) and ignore small constant factors, so
the policy is cheap enough to run on every submission.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits.circuit import Circuit
from ..exceptions import ReproError

#: Bytes per complex128 amplitude.
_COMPLEX_BYTES = 16

#: Mirrors the trajectory engine's auto-chunking cap
#: (:func:`repro.sim.fidelity.resolve_batch_size`): the stacked state is
#: bounded by ``_AUTO_BATCH_ENTRIES`` amplitudes regardless of trials.
_AUTO_BATCH_ENTRIES = 1 << 20
_MAX_AUTO_BATCH = 256


class AdmissionError(ReproError):
    """A submission was refused because it would exceed the memory
    budget even after every downgrade."""


def state_entries(circuit: Circuit) -> int:
    """The joint state dimension ``prod(wire dims)`` of a circuit."""
    entries = 1
    for wire in circuit.all_qudits():
        entries *= wire.dimension
    return entries


def estimate_memory_bytes(
    circuit: Circuit,
    kind: str,
    *,
    trials: int | None = None,
    batch_size: int | None = None,
    parallel: bool = False,
    workers: int = 1,
) -> int:
    """Closed-form footprint estimate of one run, in bytes.

    ``kind`` is the backend capability kind (``"classical"``,
    ``"statevector"``, ``"density"``, ``"trajectory"``).  Classical runs
    hold integers per wire, not amplitudes, and effectively never
    dominate.
    """
    wires = circuit.all_qudits()
    if kind == "classical":
        per_run = 8 * max(1, len(wires))
    else:
        entries = state_entries(circuit)
        if kind == "density":
            per_run = entries * entries * _COMPLEX_BYTES
        elif kind == "trajectory":
            effective_trials = trials if trials is not None else 100
            if batch_size is not None:
                batch = max(1, min(batch_size, effective_trials))
            else:
                batch = max(1, min(
                    effective_trials,
                    _AUTO_BATCH_ENTRIES // max(1, entries),
                    _MAX_AUTO_BATCH,
                ))
            # Noisy + ideal stacks both live during a batched pass.
            per_run = 2 * batch * entries * _COMPLEX_BYTES
        else:
            per_run = entries * _COMPLEX_BYTES
    if parallel:
        per_run *= max(1, workers)
    return per_run


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of reviewing one submission."""

    #: ``"admit"``, ``"downgrade"``, or ``"reject"``.
    action: str
    estimated_bytes: int
    limit_bytes: int
    #: Ladder steps applied, e.g. ``("parallel-to-serial",)``.
    downgrades: tuple[str, ...] = ()
    reason: str = ""

    @property
    def admitted(self) -> bool:
        """True unless the request was rejected outright."""
        return self.action != "reject"


class AdmissionPolicy:
    """Estimate-and-downgrade admission control for the job queue."""

    def __init__(self, max_state_bytes: int = 1 << 30) -> None:
        if max_state_bytes < 1:
            raise ValueError("max_state_bytes must be positive")
        self.max_state_bytes = max_state_bytes

    def review(
        self,
        circuit: Circuit,
        kind: str,
        *,
        trials: int | None = None,
        batch_size: int | None = None,
        parallel: bool = False,
        workers: int = 1,
    ) -> AdmissionDecision:
        """Admit, downgrade, or reject one fully resolved request."""

        def estimate(parallel: bool, batch_size: int | None) -> int:
            return estimate_memory_bytes(
                circuit, kind,
                trials=trials, batch_size=batch_size,
                parallel=parallel, workers=workers,
            )

        limit = self.max_state_bytes
        first = estimate(parallel, batch_size)
        if first <= limit:
            return AdmissionDecision("admit", first, limit)

        downgrades: list[str] = []
        if parallel:
            parallel = False
            downgrades.append("parallel-to-serial")
        current = estimate(parallel, batch_size)
        if current > limit and kind == "trajectory" and batch_size != 1:
            batch_size = 1
            downgrades.append("batched-to-looped")
            current = estimate(parallel, batch_size)
        if current <= limit:
            return AdmissionDecision(
                "downgrade", current, limit, tuple(downgrades),
                reason=(
                    f"estimated {first} B over the {limit} B budget; "
                    f"downgraded via {', '.join(downgrades)}"
                ),
            )
        return AdmissionDecision(
            "reject", current, limit, tuple(downgrades),
            reason=(
                f"estimated {current} B exceeds the {limit} B budget "
                f"even after downgrades "
                f"({', '.join(downgrades) or 'none applicable'})"
            ),
        )


#: The queue's default budget: 1 GiB of state per run.  Large enough
#: that every workload in this repo admits untouched; small enough to
#: refuse a density-matrix request that would dirty tens of GiB.
DEFAULT_ADMISSION = AdmissionPolicy()
