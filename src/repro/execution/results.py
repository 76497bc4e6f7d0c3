"""Common result records returned by every backend.

The four simulators each used to return a different shape (a wire-value
dict, a :class:`~repro.sim.state.StateVector`, a
:class:`~repro.sim.fidelity.FidelityEstimate`, a
:class:`~repro.sim.density.DensityMatrix`).  The execution layer funnels
them all into :class:`RunResult` — one record carrying whichever payloads
the backend produced — so sweeps, caching and parallel merging can treat
every backend uniformly.  Noisy trajectory runs return the
:class:`FidelityResult` refinement, which adds the paper's mean-fidelity
statistics and supports exact shard merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ..qudits import Qudit
from ..sim.density import DensityMatrix
from ..sim.fidelity import FidelityEstimate
from ..sim.measurement import MeasurementResult
from ..sim.state import StateVector


def _frozen(mapping: Mapping | None) -> Mapping:
    return MappingProxyType(dict(mapping or {}))


@dataclass(frozen=True)
class RunResult:
    """Outcome of one backend run of one circuit.

    Exactly which payload fields are filled depends on the backend kind:
    ``values`` for classical runs, ``state`` for state-vector runs — or
    ``measurements`` alone when shots were requested — and ``density``
    for exact noisy evolution.  ``params`` records the sweep point that
    produced the run (empty outside sweeps) and ``seed`` the derived seed
    actually used, so results stay reproducible after merging.
    """

    backend: str
    wires: tuple[Qudit, ...]
    params: Mapping = field(default_factory=dict)
    seed: int | None = None
    values: tuple[int, ...] | None = None
    state: StateVector | None = None
    density: DensityMatrix | None = None
    measurements: MeasurementResult | None = None
    metadata: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(self.wires))
        object.__setattr__(self, "params", _frozen(self.params))
        object.__setattr__(self, "metadata", _frozen(self.metadata))

    # Mapping proxies cannot be pickled, but results must cross process
    # boundaries for parallel sweeps — swap them for dicts in transit.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["params"] = dict(self.params)
        state["metadata"] = dict(self.metadata)
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "params", _frozen(state["params"]))
        object.__setattr__(self, "metadata", _frozen(state["metadata"]))

    def with_params(self, params: Mapping) -> "RunResult":
        """The same result tagged with a sweep point."""
        return replace(self, params=_frozen(params))

    def probability_of(self, outcome: Sequence[int]) -> float:
        """Probability of a basis outcome, from whichever payload exists.

        Prefers the exact state/density payload; falls back to empirical
        shot frequencies; a classical run returns 1.0 or 0.0.
        """
        outcome = tuple(outcome)
        if self.state is not None:
            return self.state.probability_of(outcome)
        if self.density is not None:
            basis = StateVector.computational_basis(
                list(self.wires), outcome
            )
            return self.density.fidelity_with_pure(basis)
        if self.values is not None:
            return 1.0 if self.values == outcome else 0.0
        if self.measurements is not None:
            return self.measurements.probability_of(outcome)
        raise ValueError("result carries no payload to query")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        payloads = [
            name
            for name in ("values", "state", "density", "measurements")
            if getattr(self, name) is not None
        ]
        suffix = f" params={dict(self.params)}" if self.params else ""
        return (
            f"RunResult[{self.backend}] over {len(self.wires)} wires "
            f"({', '.join(payloads) or 'empty'}){suffix}"
        )


@dataclass(frozen=True)
class FidelityResult(RunResult):
    """A :class:`RunResult` carrying trajectory fidelity statistics."""

    estimate: FidelityEstimate | None = None

    @property
    def mean_fidelity(self) -> float:
        """Mean trajectory fidelity (the Figure 11 observable)."""
        return self._require().mean_fidelity

    @property
    def std_error(self) -> float:
        """Standard error of the mean fidelity."""
        return self._require().std_error

    @property
    def two_sigma(self) -> float:
        """The paper's quoted uncertainty: two standard errors."""
        return self._require().two_sigma

    @property
    def trials(self) -> int:
        """Number of trajectories aggregated."""
        return self._require().trials

    def _require(self) -> FidelityEstimate:
        if self.estimate is None:
            raise ValueError("fidelity result carries no estimate")
        return self.estimate

    @staticmethod
    def merge(results: Sequence["FidelityResult"]) -> "FidelityResult":
        """Exactly pool shard results (weighted means, pooled variance).

        The merged estimate is equivalent in distribution to one serial
        run with the combined trial count, which is what makes process-
        pool sharding transparent to callers.
        """
        if not results:
            raise ValueError("nothing to merge")
        estimates = [r._require() for r in results]
        total = sum(e.trials for e in estimates)

        def pooled(name: str) -> float:
            return sum(getattr(e, name) * e.trials for e in estimates) / total

        mean = pooled("mean_fidelity")
        # Pool variances: Var = E[Var_shard] + Var[mean_shard], via moments.
        second_moment = sum(
            e.trials * ((e.std_error**2) * e.trials + e.mean_fidelity**2)
            for e in estimates
        )
        variance = max(0.0, second_moment / total - mean**2)
        first = results[0]
        return FidelityResult(
            backend=first.backend,
            wires=first.wires,
            params=first.params,
            seed=first.seed,
            metadata={**first.metadata, "merged_shards": len(results)},
            estimate=FidelityEstimate(
                circuit_name=estimates[0].circuit_name,
                noise_model_name=estimates[0].noise_model_name,
                trials=total,
                mean_fidelity=float(mean),
                std_error=(
                    float(np.sqrt(variance / total)) if total > 1 else 0.0
                ),
                mean_gate_errors=pooled("mean_gate_errors"),
                mean_idle_jumps=pooled("mean_idle_jumps"),
            ),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.estimate is None:
            return super().__str__()
        suffix = f" params={dict(self.params)}" if self.params else ""
        return f"FidelityResult[{self.backend}] {self.estimate}{suffix}"
