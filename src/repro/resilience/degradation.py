"""Graceful degradation: admission control over estimated memory.

An OOM kill is the worst failure mode a serving process has — it takes
every in-flight job down with the one that was too big.  Admission
control converts that into an *upfront, typed* decision: the footprint
of a run is estimated in closed form from the circuit's wire dimensions
(state vectors are ``prod(dims)`` complex amplitudes, density matrices
the square of that, trajectories a stack of noisy and noise-free rows in
the engine's own chunk size, and ``parallel=True`` multiplies by the
worker count), and a request that would blow the budget is
**downgraded** before it is ever **rejected**:

1. ``parallel=True -> parallel=False`` — one process image instead of
   ``workers`` of them;
2. still over budget -> :class:`AdmissionError` (a clean, immediate,
   retryable-by-a-smaller-request failure — not an OOM).

The trajectory engine sizes its chunks from the register
(:func:`repro.sim.fidelity.resolve_batch_size`), so its stack is at most
``2 * 16 * max(2^18, D)`` bytes for ``D`` amplitudes — one row pair
above 2^18 amplitudes, 8 MiB below — and no smaller chunk is left to
fall back on.

Estimates are deliberately closed-form and conservative-but-simple:
they cover the dominant allocation (the state/stack itself, at 16
bytes per complex128 amplitude) and ignore small constant factors, so
the policy is cheap enough to run on every submission.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits.circuit import Circuit
from ..exceptions import ReproError
from ..sim.fidelity import resolve_batch_size

#: Bytes per complex128 amplitude.
_COMPLEX_BYTES = 16


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
    parallel: bool = False,
    workers: int = 1,
) -> int:
    """Closed-form footprint estimate of one run, in bytes.

    ``kind`` is the backend capability kind (``"classical"``,
    ``"statevector"``, ``"density"``, ``"trajectory"``).  Classical runs
    hold integers per wire, not amplitudes, and effectively never
    dominate.  A trajectory run's stack holds a noisy and a noise-free
    row per trial of one chunk, in the chunk size the engine uses.
    """
    wires = circuit.all_qudits()
    if kind == "classical":
        per_run = 8 * max(1, len(wires))
    else:
        entries = state_entries(circuit)
        if kind == "density":
            per_run = entries * entries * _COMPLEX_BYTES
        elif kind == "trajectory":
            chunk = resolve_batch_size(
                wires, trials if trials is not None else 100
            )
            per_run = 2 * chunk * entries * _COMPLEX_BYTES
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
    #: Ladder steps applied: ``()`` or ``("parallel-to-serial",)``.
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
        parallel: bool = False,
        workers: int = 1,
    ) -> AdmissionDecision:
        """Admit, downgrade, or reject one fully resolved request."""

        def estimate(parallel: bool) -> int:
            return estimate_memory_bytes(
                circuit, kind,
                trials=trials, parallel=parallel, workers=workers,
            )

        limit = self.max_state_bytes
        first = estimate(parallel)
        if first <= limit:
            return AdmissionDecision("admit", first, limit)

        downgrades: tuple[str, ...] = ()
        current = first
        if parallel:
            downgrades = ("parallel-to-serial",)
            current = estimate(False)
        if current <= limit:
            return AdmissionDecision(
                "downgrade", current, limit, downgrades,
                reason=(
                    f"estimated {first} B over the {limit} B budget; "
                    f"downgraded via {', '.join(downgrades)}"
                ),
            )
        return AdmissionDecision(
            "reject", current, limit, downgrades,
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
