"""Simulators: classical verification (the batched permutation engine),
state vector, noisy trajectories (looped and batched), exact
density-matrix reference, measurement sampling, and the shared
contraction- and permutation-kernel caches.

See ``docs/SIMULATORS.md`` for how the four engines relate and when to
pick each.
"""

from .state import StateVector
from .classical import ClassicalSimulator, resolve_classical_batch_size
from .statevector import StateVectorSimulator
from .trajectory import (
    BatchedTrajectorySimulator,
    TrajectoryResult,
    TrajectorySimulator,
)
from .fidelity import (
    FidelityEstimate,
    estimate_circuit_fidelity,
    estimate_circuit_fidelity_looped,
    resolve_batch_size,
)
from .density import DensityMatrixSimulator, DensityTensor
from .dense_reference import DenseDensityMatrix, DenseDensityMatrixSimulator
from .kernels import (
    apply_block,
    channel_kernel,
    clear_kernel_caches,
    gate_kernel,
    kernel_cache_stats,
    mixed_radix_weights,
    permutation_kernel,
)
from .measurement import MeasurementResult, sample_counts, sample_state

__all__ = [
    "StateVector",
    "ClassicalSimulator",
    "resolve_classical_batch_size",
    "StateVectorSimulator",
    "TrajectorySimulator",
    "BatchedTrajectorySimulator",
    "TrajectoryResult",
    "FidelityEstimate",
    "estimate_circuit_fidelity",
    "estimate_circuit_fidelity_looped",
    "resolve_batch_size",
    "DensityTensor",
    "DensityMatrixSimulator",
    "DenseDensityMatrix",
    "DenseDensityMatrixSimulator",
    "MeasurementResult",
    "sample_counts",
    "sample_state",
    "gate_kernel",
    "channel_kernel",
    "permutation_kernel",
    "apply_block",
    "mixed_radix_weights",
    "clear_kernel_caches",
    "kernel_cache_stats",
]
