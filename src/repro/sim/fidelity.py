"""Mean-fidelity estimation — the Figure 11 measurement harness.

Each trial draws a fresh random binary-subspace input, evolves it both
noiselessly and through one noisy trajectory, and records the squared
overlap.  The estimate reports the mean and the 2-sigma standard error the
paper quotes ("error bars are all 2 sigma < 0.1%").

Trials run through the fused trajectory engine at every chunk size:
shots are grouped into row-stack chunks sized from the register so one
chunk stays cache-friendly (:func:`resolve_batch_size`), down to
one-row chunks for states above 2^18 amplitudes.
:func:`estimate_circuit_fidelity_looped` runs the same estimate on the
looped oracle, one trajectory at a time — both engines sample the same
distribution, but their RNG streams differ, so fixed-seed results are
engine-specific.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..noise.model import NoiseModel
from ..qudits import Qudit, total_dimension
from .trajectory import (
    BatchedTrajectorySimulator,
    TrajectoryResult,
    TrajectorySimulator,
)

#: Auto-batching budget: total stacked amplitudes per chunk.  A chunk of
#: B trajectories over an n-wire state costs B * d^n complex entries;
#: 2^18 keeps a chunk around 4 MB — large enough to amortise per-gate
#: numpy overhead, small enough to stay in cache.
_AUTO_BATCH_ENTRIES = 1 << 18

#: Upper bound on the auto-chosen batch, so tiny states don't produce
#: needlessly huge stacks.
_MAX_AUTO_BATCH = 1024


def resolve_batch_size(wires: Sequence[Qudit], trials: int) -> int:
    """The trajectory chunk size (rows per stack) for one estimate.

    Sized from the state dimension and ``trials`` alone, so a given
    ``(circuit, trials, seed)`` call is deterministic across machines.  The chunk
    size only shapes the fused engine's stacks, never which engine
    runs; admission control estimates a trajectory run's memory from it
    (:func:`repro.resilience.estimate_memory_bytes`).
    """
    if trials <= 1:
        return 1
    state_entries = max(1, total_dimension(list(wires)))
    auto = _AUTO_BATCH_ENTRIES // state_entries
    return max(1, min(trials, auto, _MAX_AUTO_BATCH))


@dataclass(frozen=True)
class FidelityEstimate:
    """Aggregated trajectory statistics for one circuit/noise-model pair."""

    circuit_name: str
    noise_model_name: str
    trials: int
    mean_fidelity: float
    std_error: float
    mean_gate_errors: float
    mean_idle_jumps: float

    @property
    def two_sigma(self) -> float:
        """The paper's quoted uncertainty: two standard errors."""
        return 2.0 * self.std_error

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.circuit_name} under {self.noise_model_name}: "
            f"{100 * self.mean_fidelity:.1f}% "
            f"(+/- {100 * self.two_sigma:.2f}%, {self.trials} trials)"
        )


def estimate_circuit_fidelity(
    circuit: Circuit,
    noise_model: NoiseModel,
    trials: int,
    seed: int | None = None,
    wires: Sequence[Qudit] | None = None,
    circuit_name: str = "circuit",
) -> FidelityEstimate:
    """Run ``trials`` independent trajectories and aggregate.

    Every trial uses its own random binary-subspace initial state, per
    Algorithm 1.  Deterministic given ``seed``: the row-stack chunking
    (:func:`resolve_batch_size`) follows from the state shape alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    wires = list(wires) if wires else circuit.all_qudits()
    batched = BatchedTrajectorySimulator(
        noise_model, np.random.default_rng(seed)
    )
    results = batched.run_trials(
        circuit, wires, trials, resolve_batch_size(wires, trials)
    )
    return _aggregate(results, trials, noise_model, circuit_name)


def estimate_circuit_fidelity_looped(
    circuit: Circuit,
    noise_model: NoiseModel,
    trials: int,
    seed: int | None = None,
    wires: Sequence[Qudit] | None = None,
    circuit_name: str = "circuit",
) -> FidelityEstimate:
    """:func:`estimate_circuit_fidelity` on the looped oracle.

    One :class:`TrajectorySimulator` trajectory at a time, each from its
    own random binary-subspace input — the reference the tests and the
    noise benchmark hold the fused engine to.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    wires = list(wires) if wires else circuit.all_qudits()
    simulator = TrajectorySimulator(
        noise_model, np.random.default_rng(seed)
    )
    results = (
        simulator.run_trajectory(
            circuit, simulator.random_binary_input(wires)
        )
        for _ in range(trials)
    )
    return _aggregate(results, trials, noise_model, circuit_name)


def _aggregate(
    results: Iterable[TrajectoryResult],
    trials: int,
    noise_model: NoiseModel,
    circuit_name: str,
) -> FidelityEstimate:
    fidelities = np.empty(trials)
    gate_errors = np.empty(trials)
    idle_jumps = np.empty(trials)
    for trial, result in enumerate(results):
        fidelities[trial] = result.fidelity
        gate_errors[trial] = result.gate_errors
        idle_jumps[trial] = result.idle_jumps
    std_error = (
        float(fidelities.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    )
    return FidelityEstimate(
        circuit_name=circuit_name,
        noise_model_name=noise_model.name,
        trials=trials,
        mean_fidelity=float(fidelities.mean()),
        std_error=std_error,
        mean_gate_errors=float(gate_errors.mean()),
        mean_idle_jumps=float(idle_jumps.mean()),
    )
