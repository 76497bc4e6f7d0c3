"""The original dense ``kron``-embedding density engine, kept as an oracle.

This is the noise engine v1 hot path, verbatim in behaviour: every gate
and Kraus operator is embedded into the full ``d^n x d^n`` space (active
wires first, ``kron`` with identity on the rest, legs permuted back) and
applied as dense matrix products — ``O(d^3n)`` per operator, against the
axis-local engine's ``O(prod(active_dims) * d^2n)``.

It exists for two reasons only:

* **parity tests** — the axis-local :class:`~repro.sim.density.DensityTensor`
  must agree with this embedding to machine precision on every noise
  preset (``tests/sim/test_density_parity.py``);
* **benchmarks** — ``python -m repro bench`` times the two engines
  against each other and records the speedup in ``BENCH_noise.json``.

Do not use it for new work; it is deliberately unoptimised.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..exceptions import SimulationError
from ..noise.kraus import KrausChannel
from ..noise.model import NoiseModel
from ..qudits import Qudit, total_dimension
from .kernels import kraus_operators
from .state import StateVector
from .statevector import StateVectorSimulator

#: Same default width cap as the axis-local engine, so the two can be
#: benchmarked on identical workloads.
_MAX_DIM = 3**5


class DenseDensityMatrix:
    """A density operator evolved through full-space dense embeddings."""

    def __init__(self, wires: list[Qudit], matrix: np.ndarray) -> None:
        self._wires = list(wires)
        dim = total_dimension(self._wires)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (dim, dim):
            raise SimulationError(
                f"density matrix shape {matrix.shape} does not match "
                f"total dimension {dim}"
            )
        self._matrix = matrix
        self._dims = tuple(w.dimension for w in self._wires)
        self._axis = {w: k for k, w in enumerate(self._wires)}

    @classmethod
    def from_state(cls, state: StateVector) -> "DenseDensityMatrix":
        """|psi><psi| for a pure state."""
        vector = state.vector
        return cls(state.wires, np.outer(vector, vector.conj()))

    @property
    def wires(self) -> list[Qudit]:
        """Wire order of the operator's tensor legs."""
        return list(self._wires)

    @property
    def matrix(self) -> np.ndarray:
        """The density operator (live view)."""
        return self._matrix

    def trace(self) -> float:
        """Tr rho (1 for a normalised state)."""
        return float(np.real(np.trace(self._matrix)))

    def purity(self) -> float:
        """Tr rho^2 (1 iff pure; decreases as noise mixes the state)."""
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def fidelity_with_pure(self, state: StateVector) -> float:
        """<psi| rho |psi> against a pure reference state."""
        vector = state.vector
        return float(np.real(vector.conj() @ self._matrix @ vector))

    # ------------------------------------------------------------------

    def _expand(self, op_matrix: np.ndarray, wires: list[Qudit]) -> np.ndarray:
        """Embed an operator on ``wires`` into the full space.

        The v1 construction: permute wires so the active ones come
        first, ``kron`` with identity on the rest, permute the row and
        column tensor legs back to circuit order.
        """
        axes = [self._axis[w] for w in wires]
        n = len(self._dims)
        dims = self._dims
        order = axes + [k for k in range(n) if k not in axes]
        inverse = np.argsort(order)
        rest_dim = 1
        for k in range(n):
            if k not in axes:
                rest_dim *= dims[k]
        block = np.kron(
            np.asarray(op_matrix, dtype=complex), np.eye(rest_dim)
        )
        permuted_dims = [dims[k] for k in order]
        tensor = block.reshape(permuted_dims * 2)
        move = list(inverse) + [n + k for k in inverse]
        tensor = tensor.transpose(move)
        dim = total_dimension(self._wires)
        return tensor.reshape(dim, dim)

    def apply_unitary(self, matrix: np.ndarray, wires: list[Qudit]) -> None:
        """rho -> U rho U^dag via the full-space embedding."""
        full = self._expand(matrix, wires)
        self._matrix = full @ self._matrix @ full.conj().T

    def apply_kraus(
        self, operators: list[np.ndarray], wires: list[Qudit]
    ) -> None:
        """rho -> sum_i K_i rho K_i^dag via full-space embeddings."""
        full_ops = [self._expand(op, wires) for op in operators]
        self._matrix = sum(
            op @ self._matrix @ op.conj().T for op in full_ops
        )


class DenseDensityMatrixSimulator:
    """The v1 exact noisy evolution loop over :class:`DenseDensityMatrix`."""

    def __init__(
        self, noise_model: NoiseModel, max_dim: int | None = None
    ) -> None:
        self._model = noise_model
        self._max_dim = max_dim if max_dim is not None else _MAX_DIM

    def run(
        self, circuit: Circuit, initial_state: StateVector
    ) -> DenseDensityMatrix:
        """Evolve ``initial_state`` with the full channel at every step."""
        wires = initial_state.wires
        if total_dimension(wires) > self._max_dim:
            raise SimulationError(
                "dense density-matrix simulation limited to "
                f"{self._max_dim}-dimensional spaces"
            )
        rho = DenseDensityMatrix.from_state(initial_state)
        for moment in circuit:
            for op in moment:
                rho.apply_unitary(op.unitary(), list(op.qudits))
                dims = tuple(w.dimension for w in op.qudits)
                channel = self._model.gate_error(dims)
                rho.apply_kraus(
                    kraus_operators(channel), list(op.qudits)
                )
            duration = self._model.moment_duration(moment)
            for wire in wires:
                for idle in self._model.idle_channels(
                    wire.dimension, duration
                ):
                    if isinstance(idle, KrausChannel):
                        rho.apply_kraus(idle.operators, [wire])
                    else:
                        rho.apply_kraus(kraus_operators(idle), [wire])
        return rho

    def mean_fidelity(
        self, circuit: Circuit, initial_state: StateVector
    ) -> float:
        """<psi_ideal| rho |psi_ideal> under the dense embedding."""
        ideal = StateVectorSimulator().run(circuit, initial_state)
        rho = self.run(circuit, initial_state)
        return rho.fidelity_with_pure(ideal)
