"""The unified ``Backend`` protocol and adapters over the four simulators.

Every execution target — classical permutation propagation, noise-free
state vectors, exact density-matrix evolution, sampled noisy trajectories
— implements the same surface:

* ``name`` — registry identifier,
* ``capabilities`` — a static record of what the backend can do,
* ``run(circuit, *, wires, initial, shots, trials, seed)`` — one circuit
  execution returning a :class:`~repro.execution.results.RunResult`;
  every backend takes exactly these keywords.

The adapters wrap the existing engines in :mod:`repro.sim` (which remain
the canonical implementations); this module only translates arguments and
results.  Backends are constructed through :func:`resolve_backend`, which
is what lets :func:`repro.execute` accept plain string names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..circuits.circuit import Circuit
from ..exceptions import SimulationError
from ..noise.model import NoiseModel
from ..qudits import Qudit
from ..sim.classical import ClassicalSimulator
from ..sim.density import DensityMatrixSimulator
from ..sim.fidelity import estimate_circuit_fidelity
from ..sim.measurement import sample_counts
from ..sim.state import StateVector
from ..sim.statevector import StateVectorSimulator
from .results import FidelityResult, RunResult


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend supports, for upfront argument validation
    (:func:`check_run_options`)."""

    #: Payload family: "classical", "statevector", "density", "trajectory".
    kind: str
    #: True if the backend models device noise (needs a NoiseModel).
    noisy: bool = False
    #: True if ``shots`` sampling is meaningful.
    supports_shots: bool = False
    #: True if ``trials`` (trajectory count) is meaningful.
    supports_trials: bool = False
    #: True if only permutation (classical) circuits can run.
    classical_circuits_only: bool = False
    #: True if results are deterministic for a fixed seed.
    seedable: bool = True


def check_run_options(
    backend: "Backend", *, shots: int | None, trials: int | None
) -> None:
    """Raise ``ValueError`` for run options ``backend`` cannot honour.

    ``shots`` needs a backend that samples (``supports_shots``) and
    ``trials`` one that runs trajectories (``supports_trials``); either
    must be at least 1 when given.  :func:`repro.execute` and
    ``JobQueue.submit`` call this before building or compiling anything,
    so a bad option never reaches an engine, a cache key or the store.
    """
    capabilities = backend.capabilities
    for option, value, supported in (
        ("shots", shots, capabilities.supports_shots),
        ("trials", trials, capabilities.supports_trials),
    ):
        if value is None:
            continue
        if not supported:
            raise ValueError(
                f"backend {backend.name!r} does not take {option}"
            )
        if value < 1:
            raise ValueError(
                f"backend {backend.name!r} needs {option} >= 1, got {value}"
            )


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a circuit into a :class:`RunResult`."""

    @property
    def name(self) -> str:
        """Registry name of the backend."""
        ...

    @property
    def capabilities(self) -> BackendCapabilities:
        """Static description of supported features."""
        ...

    def run(
        self,
        circuit: Circuit,
        *,
        wires: Sequence[Qudit] | None = None,
        initial: StateVector | Sequence[int] | None = None,
        shots: int | None = None,
        trials: int | None = None,
        seed: int | None = None,
    ) -> RunResult:
        """Execute ``circuit`` and return the common result record."""
        ...


def _resolve_wires(
    circuit: Circuit, wires: Sequence[Qudit] | None
) -> list[Qudit]:
    wires = list(wires) if wires is not None else circuit.all_qudits()
    missing = [w for w in circuit.all_qudits() if w not in wires]
    if missing:
        raise SimulationError(
            f"wire list does not cover circuit wires {missing}"
        )
    return wires


def _initial_state(
    wires: Sequence[Qudit],
    initial: StateVector | Sequence[int] | None,
) -> StateVector:
    if initial is None:
        return StateVector.zero(list(wires))
    if isinstance(initial, StateVector):
        return initial
    return StateVector.computational_basis(list(wires), list(initial))


class ClassicalBackend:
    """Linear-cost basis-state propagation (permutation circuits only).

    Runs through the batched permutation engine: the circuit lowers once
    into cached permutation tables and the input advances by table
    gathers (no per-gate Python), so repeated runs of one circuit — or
    sweeps through the execute() facade — share all lowering work.
    """

    name = "classical"
    capabilities = BackendCapabilities(
        kind="classical", classical_circuits_only=True
    )

    def __init__(self) -> None:
        self._simulator = ClassicalSimulator()

    def run(
        self,
        circuit: Circuit,
        *,
        wires: Sequence[Qudit] | None = None,
        initial: StateVector | Sequence[int] | None = None,
        shots: int | None = None,
        trials: int | None = None,
        seed: int | None = None,
    ) -> RunResult:
        if isinstance(initial, StateVector):
            raise SimulationError(
                "the classical backend takes basis values, not a state "
                "vector; use the statevector backend for superpositions"
            )
        wires = _resolve_wires(circuit, wires)
        values = (
            tuple(initial) if initial is not None else (0,) * len(wires)
        )
        if len(values) != len(wires):
            raise SimulationError(
                f"{len(wires)} wires but {len(values)} input values"
            )
        output = self._simulator.run_values(circuit, wires, values)
        return RunResult(
            backend=self.name,
            wires=tuple(wires),
            seed=seed,
            values=output,
            metadata={"input_values": values},
        )


class StateVectorBackend:
    """Noise-free dense state-vector evolution, with optional sampling.

    ``shots`` sampling draws outcome *counts* directly from the final
    state's probabilities (:func:`repro.sim.measurement.sample_counts`):
    one circuit execution serves any shot budget without materialising a
    per-shot sample array, and the counts are deterministic for a fixed
    ``seed``.  A run with ``shots`` returns the counts only
    (``state=None``); run without ``shots`` to get the final state.
    """

    name = "statevector"
    capabilities = BackendCapabilities(
        kind="statevector", supports_shots=True
    )

    def __init__(self) -> None:
        self._simulator = StateVectorSimulator()

    def run(
        self,
        circuit: Circuit,
        *,
        wires: Sequence[Qudit] | None = None,
        initial: StateVector | Sequence[int] | None = None,
        shots: int | None = None,
        trials: int | None = None,
        seed: int | None = None,
    ) -> RunResult:
        wires = _resolve_wires(circuit, wires)
        if initial is None:
            state = self._simulator.run(circuit, wires=wires)
        elif isinstance(initial, StateVector):
            state = self._simulator.run(circuit, initial)
        else:
            state = self._simulator.run_basis(circuit, wires, list(initial))
        measurements = None
        if shots:
            rng = np.random.default_rng(seed)
            measurements = sample_counts(state, shots, rng)
        return RunResult(
            backend=self.name,
            wires=tuple(state.wires),
            seed=seed,
            state=None if shots else state,
            measurements=measurements,
        )


class DensityMatrixBackend:
    """Exact noisy evolution — the reference trajectories converge to."""

    name = "density"

    def __init__(self, noise_model: NoiseModel) -> None:
        self._model = noise_model
        self._simulator = DensityMatrixSimulator(noise_model)

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(kind="density", noisy=True)

    @property
    def noise_model(self) -> NoiseModel:
        """The device model driving gate-error and idle channels."""
        return self._model

    def run(
        self,
        circuit: Circuit,
        *,
        wires: Sequence[Qudit] | None = None,
        initial: StateVector | Sequence[int] | None = None,
        shots: int | None = None,
        trials: int | None = None,
        seed: int | None = None,
    ) -> RunResult:
        wires = _resolve_wires(circuit, wires)
        start = _initial_state(wires, initial)
        rho = self._simulator.run(circuit, start)
        ideal = StateVectorSimulator().run(circuit, start)
        return RunResult(
            backend=self.name,
            wires=tuple(rho.wires),
            seed=seed,
            density=rho,
            metadata={
                "noise_model": self._model.name,
                "fidelity_vs_ideal": rho.fidelity_with_pure(ideal),
                "purity": rho.purity(),
            },
        )


class TrajectoryBackend:
    """Sampled noisy trajectories — Algorithm 1, the Figure 11 harness.

    Trials run through the fused-moment engine in row-stack chunks
    sized from the register
    (:func:`repro.sim.fidelity.resolve_batch_size`).
    """

    name = "trajectory"
    #: Trajectories per run when the caller does not say.
    default_trials = 100

    def __init__(self, noise_model: NoiseModel) -> None:
        self._model = noise_model

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            kind="trajectory", noisy=True, supports_trials=True
        )

    @property
    def noise_model(self) -> NoiseModel:
        """The device model driving gate-error and idle channels."""
        return self._model

    def run(
        self,
        circuit: Circuit,
        *,
        wires: Sequence[Qudit] | None = None,
        initial: StateVector | Sequence[int] | None = None,
        shots: int | None = None,
        trials: int | None = None,
        seed: int | None = None,
    ) -> FidelityResult:
        if initial is not None:
            raise SimulationError(
                "the trajectory backend draws its own random binary-"
                "subspace inputs per Algorithm 1; 'initial' is not "
                "supported"
            )
        wires = _resolve_wires(circuit, wires)
        trials = trials if trials is not None else self.default_trials
        estimate = estimate_circuit_fidelity(
            circuit,
            self._model,
            trials=trials,
            seed=seed,
            wires=wires,
            circuit_name="circuit",
        )
        return FidelityResult(
            backend=self.name,
            wires=tuple(wires),
            seed=seed,
            metadata={"noise_model": self._model.name},
            estimate=estimate,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: name -> factory(noise_model) -> Backend.  Noise-free factories ignore
#: the model argument so callers can resolve uniformly.
BACKEND_FACTORIES: dict[
    str, Callable[[NoiseModel | None], Backend]
] = {}


def register_backend(
    name: str, factory: Callable[[NoiseModel | None], Backend]
) -> None:
    """Add (or replace) a named backend factory in the registry."""
    BACKEND_FACTORIES[name] = factory


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(BACKEND_FACTORIES)


def resolve_backend(
    spec: str | Backend, noise_model: NoiseModel | None = None
) -> Backend:
    """Turn a backend name (or pass through an instance) into a backend.

    Noisy backends require ``noise_model``; naming one without a model is
    an error rather than a silent default, since the choice of model is
    the experiment (Sec. 7).
    """
    if not isinstance(spec, str):
        return spec
    if spec not in BACKEND_FACTORIES:
        raise KeyError(
            f"unknown backend {spec!r}; choose from {available_backends()}"
        )
    return BACKEND_FACTORIES[spec](noise_model)


def _noise_free(
    cls: Callable[[], Backend],
) -> Callable[[NoiseModel | None], Backend]:
    def factory(noise_model: NoiseModel | None = None) -> Backend:
        return cls()

    return factory


def _noisy(
    cls: Callable[[NoiseModel], Backend], name: str
) -> Callable[[NoiseModel | None], Backend]:
    def factory(noise_model: NoiseModel | None = None) -> Backend:
        if noise_model is None:
            raise ValueError(
                f"backend {name!r} needs a noise model; pass "
                "noise_model=... (e.g. repro.noise.SC)"
            )
        return cls(noise_model)

    return factory


register_backend("classical", _noise_free(ClassicalBackend))
register_backend("statevector", _noise_free(StateVectorBackend))
register_backend("density", _noisy(DensityMatrixBackend, "density"))
register_backend("trajectory", _noisy(TrajectoryBackend, "trajectory"))
