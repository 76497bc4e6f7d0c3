"""Axis-local density-matrix simulation of noisy circuits.

The paper's trajectory methodology is justified by its convergence to full
density-matrix evolution (Sec. 6.2: "Over repeated trials, the quantum
trajectory methodology converges to the same results as from full density
matrix simulation").  This module *is* that reference: it evolves the
density operator exactly under the same noise model —

* gates:       rho -> U rho U^dag
* gate errors: the depolarizing channel, eqs. 3-6
* idle errors: per-wire amplitude damping / dephasing Kraus maps

— so tests can assert that averaged trajectories match it.

Tensor leg convention
---------------------

The density operator of ``n`` wires with dimensions ``(d_0, ..., d_{n-1})``
is stored as a tensor of shape ``(d_0, ..., d_{n-1}, d_0, ..., d_{n-1})``:

* axes ``0 .. n-1`` are the **row** legs (the ket side of ``|r><c|``),
  ordered like the wire list — the same convention as
  :class:`~repro.sim.state.StateVector`;
* axes ``n .. 2n-1`` are the matching **column** legs (the bra side).

An operator on ``k`` wires is applied by contracting only those wires'
legs: its :class:`~repro.sim.kernels.GateKernel` block hits the row legs,
its conjugate hits the column legs.  Each side costs
``O(prod(active_dims) * d^2n)`` — the full ``d^n x d^n`` matrix of the
embedded operator (the old ``kron``-with-identity path, preserved in
:mod:`repro.sim.dense_reference`) is never materialised.  Flattening row
legs then column legs in C order recovers the conventional ``d^n x d^n``
matrix, which is what the :attr:`DensityTensor.matrix` property does.

Memory is still ``d^2n``, which is exactly why the paper samples
trajectories for the 14-input experiment; keep widths moderate.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..exceptions import SimulationError
from ..noise.model import NoiseModel
from ..qudits import Qudit, total_dimension
from .kernels import ChannelKernel, GateKernel, channel_kernel, gate_kernel
from .state import StateVector
from .statevector import StateVectorSimulator

#: Default Hilbert-space cap: 5 qutrits (243) — rho has 3^10 entries.
#: Wide enough for the benchmark workloads, small enough that an
#: accidental 14-wire run fails fast; override via ``max_dim=``.
_MAX_DIM = 3**5


class DensityTensor:
    """A density operator over an ordered list of wires.

    Stored in tensor-leg form (row legs then column legs, see the module
    docstring); accepts either that tensor or the flat ``dim x dim``
    matrix at construction.
    """

    def __init__(self, wires: list[Qudit], matrix: np.ndarray) -> None:
        self._wires = list(wires)
        dim = total_dimension(self._wires)
        self._dims = tuple(w.dimension for w in self._wires)
        self._axis = {w: k for k, w in enumerate(self._wires)}
        shape = self._dims + self._dims
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape == shape:
            self._tensor = matrix
        elif matrix.shape == (dim, dim):
            self._tensor = matrix.reshape(shape)
        else:
            raise SimulationError(
                f"density matrix shape {matrix.shape} does not match "
                f"total dimension {dim}"
            )

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityTensor":
        """|psi><psi| for a pure state."""
        tensor = state.tensor
        return cls(
            state.wires, np.multiply.outer(tensor, tensor.conj())
        )

    @property
    def wires(self) -> list[Qudit]:
        """Wire order of the operator's tensor legs."""
        return list(self._wires)

    @property
    def tensor(self) -> np.ndarray:
        """The density operator in tensor-leg form (live view)."""
        return self._tensor

    @property
    def matrix(self) -> np.ndarray:
        """The conventional ``dim x dim`` density matrix.

        A *read* surface: after evolution the underlying tensor is
        usually non-contiguous, so this is typically a fresh copy and
        writes to it do not reach the state.  Mutate through the
        ``apply_*`` methods instead.
        """
        dim = total_dimension(self._wires)
        return self._tensor.reshape(dim, dim)

    def trace(self) -> float:
        """Tr rho (1 for a normalised state)."""
        # Contract each row leg with its column leg directly — no
        # full-matrix copy.
        n = len(self._wires)
        subscripts = list(range(n)) * 2
        return float(np.real(np.einsum(self._tensor, subscripts)))

    def purity(self) -> float:
        """Tr rho^2 (1 iff pure; decreases as noise mixes the state)."""
        matrix = self.matrix
        # Tr rho^2 = sum_ij rho_ij rho_ji — O(dim^2), no matmul needed.
        return float(np.real(np.einsum("ij,ji->", matrix, matrix)))

    def fidelity_with_pure(self, state: StateVector) -> float:
        """<psi| rho |psi> — the mean-fidelity observable of Figure 11."""
        vector = state.vector
        return float(np.real(vector.conj() @ self.matrix @ vector))

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def _contract(
        self, block: np.ndarray, axes: list[int]
    ) -> None:
        """Contract ``block``'s input legs against ``axes`` of rho.

        ``tensordot`` leaves the block's output legs at the front; they
        are moved back to the contracted positions, restoring the leg
        order.
        """
        k = len(axes)
        moved = np.tensordot(
            block, self._tensor, axes=(range(k, 2 * k), axes)
        )
        self._tensor = np.moveaxis(moved, range(k), axes)

    def _row_col_axes(
        self, wires: list[Qudit]
    ) -> tuple[list[int], list[int]]:
        n = len(self._wires)
        rows = [self._axis[w] for w in wires]
        return rows, [n + a for a in rows]

    def apply_gate_kernel(
        self, kernel: GateKernel, wires: list[Qudit]
    ) -> None:
        """rho -> U rho U^dag with a precomputed kernel."""
        rows, cols = self._row_col_axes(wires)
        self._contract(kernel.block, rows)
        self._contract(kernel.conj_block, cols)

    def apply_channel_kernel(
        self, kernel: ChannelKernel, wires: list[Qudit]
    ) -> None:
        """rho -> sum_i K_i rho K_i^dag with a precomputed kernel."""
        rows, cols = self._row_col_axes(wires)
        original = self._tensor
        total = None
        for block, conj_block in zip(kernel.blocks, kernel.conj_blocks):
            self._tensor = original
            self._contract(block, rows)
            self._contract(conj_block, cols)
            total = (
                self._tensor if total is None else total + self._tensor
            )
        self._tensor = total

    def apply_symmetric_depolarizing(
        self, p_channel: float, wires: list[Qudit]
    ) -> None:
        """Apply a full symmetric Pauli channel in closed form.

        For a mixture giving every non-identity generalized Pauli on the
        active wires the same probability ``p``, the twirl identity
        ``sum_{all P} P rho P^dag = d * I_A (x) Tr_A rho`` collapses the
        whole channel to

            rho -> (1 - p d^2) rho + p d (I_A (x) Tr_A rho)

        with ``d`` the active wires' joint dimension — one partial trace
        and one broadcast instead of ``d^2 - 1`` operator conjugations
        (162 contractions for a two-qutrit gate error).
        """
        n = len(self._wires)
        rows, cols = self._row_col_axes(wires)
        k = len(rows)
        active_dims = tuple(w.dimension for w in wires)
        d_active = 1
        for d in active_dims:
            d_active *= d
        # Partial trace over the active wires: tie each active row leg
        # to its column leg in one einsum.
        subscripts = list(range(2 * n))
        for r, c in zip(rows, cols):
            subscripts[c] = subscripts[r]
        rest = [
            axis
            for axis in range(2 * n)
            if axis not in rows and axis not in cols
        ]
        traced = np.einsum(
            self._tensor, subscripts, [subscripts[axis] for axis in rest]
        )
        # I_A (x) Tr_A rho, built with active legs in front, then moved
        # back into circuit leg order.
        eye = np.eye(d_active, dtype=complex).reshape(
            active_dims + active_dims
        )
        block = np.multiply.outer(eye, traced)
        block = np.moveaxis(block, range(2 * n), rows + cols + rest)
        self._tensor = (
            (1.0 - p_channel * d_active**2) * self._tensor
            + (p_channel * d_active) * block
        )

    def apply_unitary(
        self, matrix: np.ndarray, wires: list[Qudit]
    ) -> None:
        """rho -> U rho U^dag for a raw operator matrix."""
        dims = tuple(w.dimension for w in wires)
        block = np.asarray(matrix, dtype=complex).reshape(dims + dims)
        self.apply_gate_kernel(
            GateKernel(dims, block, block.conj()), wires
        )

    def apply_kraus(
        self, operators: list[np.ndarray], wires: list[Qudit]
    ) -> None:
        """rho -> sum_i K_i rho K_i^dag for raw operator matrices."""
        dims = tuple(w.dimension for w in wires)
        blocks = tuple(
            np.asarray(op, dtype=complex).reshape(dims + dims)
            for op in operators
        )
        self.apply_channel_kernel(
            ChannelKernel(dims, blocks, tuple(b.conj() for b in blocks)),
            wires,
        )


class DensityMatrixSimulator:
    """Exact noisy evolution under a :class:`NoiseModel`.

    Every gate, depolarizing draw, and idle window of the trajectory
    engine is applied here as its *full* channel, through cached
    axis-local kernels (:mod:`repro.sim.kernels`), so the two engines
    share one noise schedule and the trajectory average converges to
    this result.
    """

    def __init__(
        self, noise_model: NoiseModel, max_dim: int | None = None
    ) -> None:
        self._model = noise_model
        self._max_dim = max_dim if max_dim is not None else _MAX_DIM

    def run(
        self, circuit: Circuit, initial_state: StateVector
    ) -> DensityTensor:
        """Evolve ``initial_state`` with the full channel at every step.

        Mirrors the trajectory simulator's schedule exactly: per-gate
        depolarizing channels, then per-wire idle channels scaled to each
        moment's duration.
        """
        wires = initial_state.wires
        if total_dimension(wires) > self._max_dim:
            raise SimulationError(
                "density-matrix simulation limited to "
                f"{self._max_dim}-dimensional spaces; use trajectories "
                "instead (or raise max_dim)"
            )
        rho = DensityTensor.from_state(initial_state)
        for moment in circuit:
            for op in moment:
                op_wires = list(op.qudits)
                rho.apply_gate_kernel(gate_kernel(op), op_wires)
                dims = tuple(w.dimension for w in op.qudits)
                error = self._model.gate_error(dims)
                symmetric = getattr(
                    error, "symmetric_pauli_probability", None
                )
                if symmetric is not None:
                    rho.apply_symmetric_depolarizing(symmetric, op_wires)
                else:
                    rho.apply_channel_kernel(
                        channel_kernel(error), op_wires
                    )
            duration = self._model.moment_duration(moment)
            for wire in wires:
                for idle in self._model.idle_channels(
                    wire.dimension, duration
                ):
                    rho.apply_channel_kernel(
                        channel_kernel(idle), [wire]
                    )
        return rho

    def mean_fidelity(
        self, circuit: Circuit, initial_state: StateVector
    ) -> float:
        """<psi_ideal| rho |psi_ideal> — what trajectories converge to."""
        ideal = StateVectorSimulator().run(circuit, initial_state)
        rho = self.run(circuit, initial_state)
        return rho.fidelity_with_pure(ideal)
