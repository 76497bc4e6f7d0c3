"""repro — reproduction of "Asymptotic Improvements to Quantum Circuits via
Qutrits" (Gokhale et al., ISCA 2019).

The package provides a mixed-dimension qudit circuit library, a
quantum-trajectory noise simulator with the paper's superconducting and
trapped-ion noise models, the paper's log-depth ancilla-free qutrit
Generalized Toffoli plus all benchmarked baselines, and the applications
built on top of it (incrementer, Grover search, quantum neuron).

Everything runs through one facade: :func:`execute` builds (or accepts)
a circuit, optionally compiles it through a :class:`CompilePipeline`,
and executes it on any registered :class:`Backend`.

Quickstart::

    from repro import execute

    # Classical check of the paper's log-depth qutrit construction.
    result = execute("qutrit_tree", num_controls=5, backend="classical",
                     initial=(1, 1, 1, 1, 1, 0))
    print(result.values)        # -> (1, 1, 1, 1, 1, 1): target flipped

    # Noisy fidelity sweep, sharded over worker processes.
    from repro.noise import SC
    points = execute("qutrit_tree", backend="trajectory", noise_model=SC,
                     sweep={"num_controls": range(3, 8)},
                     trials=100, seed=2019, parallel=True)
    for point in points:
        print(dict(point.params), point.mean_fidelity)

The simulator engines (``ClassicalSimulator``, ``StateVectorSimulator``,
``TrajectorySimulator``, ``estimate_circuit_fidelity``, ...) are
imported from :mod:`repro.sim` for direct use.
"""

from .qudits import QUBIT_D, QUTRIT_D, Qudit, qubits, qudit_line, qutrits
from .gates import GATE_REGISTRY, GateRegistry, GateSpec
from .circuits import Circuit, GateOperation, Moment
from .sim import StateVector
from .noise import ALL_MODELS, NoiseModel
from .toffoli import CONSTRUCTIONS, GeneralizedToffoli, build_toffoli
from .arch import (
    CouplingGraph,
    LookaheadRouter,
    RouterConfig,
    RoutingMetrics,
    TopologySpec,
    route_circuit,
    routing_metrics,
    sized_topology,
)

# The execution layer wraps sim/noise/toffoli, so it must import last.
from .execution import (
    Backend,
    CompilePipeline,
    FidelityResult,
    PipelineSpec,
    PipelineStage,
    ResultCache,
    RunResult,
    available_backends,
    execute,
    register_backend,
    resolve_backend,
)

# The serving layer sits on top of the execution layer.
from .service import Job, JobQueue, JobState, ResultStore

__version__ = "8.1.0"

__all__ = [
    "Qudit",
    "QUBIT_D",
    "QUTRIT_D",
    "qubits",
    "qutrits",
    "qudit_line",
    "Circuit",
    "Moment",
    "GateOperation",
    "GateSpec",
    "GateRegistry",
    "GATE_REGISTRY",
    "StateVector",
    "execute",
    "Backend",
    "RunResult",
    "FidelityResult",
    "CompilePipeline",
    "PipelineSpec",
    "PipelineStage",
    "CouplingGraph",
    "TopologySpec",
    "sized_topology",
    "RouterConfig",
    "LookaheadRouter",
    "route_circuit",
    "RoutingMetrics",
    "routing_metrics",
    "ResultCache",
    "Job",
    "JobQueue",
    "JobState",
    "ResultStore",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "NoiseModel",
    "ALL_MODELS",
    "GeneralizedToffoli",
    "build_toffoli",
    "CONSTRUCTIONS",
    "__version__",
]
