"""Mixed-dimension state vectors.

The state of ``n`` wires with dimensions ``(d_0, ..., d_{n-1})`` is stored as
a complex tensor of that shape.  Gates are applied by tensor contraction on
the touched axes only (the einsum approach the paper adopts from Cirq,
Sec. 6.2) — the d^N x d^N matrix of a gate or moment is never materialised.

Tensor leg convention (shared across the simulation engines):

* state tensor axis ``k`` is wire ``k`` of the wire list, so amplitude
  ``tensor[v_0, ..., v_{n-1}]`` is the basis state ``|v_0 ... v_{n-1}>``
  with the *first* wire most significant when flattened (C order);
* an operator on ``k`` wires is reshaped to ``dims + dims`` — output
  legs first, input legs last — and ``tensordot`` ties its input legs
  to the touched state axes (see :mod:`repro.sim.kernels`);
* the fused trajectory engine stacks flat states as rows (shape
  ``(R, d_0 ... d_{n-1})``, viewed as ``(R, d_0, ..., d_{n-1})`` for a
  gate); the density engine appends a mirrored set of column legs
  (shape ``dims + dims``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, SimulationError
from ..linalg import random_state_vector
from ..qudits import Qudit
from ..circuits.operation import GateOperation
from .kernels import (
    IN_PLACE,
    GatePlan,
    apply_block,
    apply_steps,
    gate_kernel,
)


def check_basis_values(wires: Sequence[Qudit], values: Sequence[int]) -> None:
    """Raise unless ``values`` gives each of ``wires`` one level in range."""
    if len(values) != len(wires):
        raise DimensionMismatchError(
            f"{len(wires)} wires but {len(values)} values"
        )
    for value, wire in zip(values, wires):
        if not 0 <= value < wire.dimension:
            raise ValueError(f"value {value} invalid for wire {wire}")


class StateVector:
    """A pure state over an ordered list of wires.

    Amplitudes are stored at ``complex128`` by default; pass
    ``dtype=np.complex64`` (or hand in a ``complex64`` tensor) for the
    bulk-sweep half-precision mode.  A ``complex64`` state stays
    ``complex64`` through every operation — kernels are cast once per
    precision in the process-wide cache — with amplitude error bounded
    by roughly ``gates * sqrt(dim) * 1e-7`` (see docs/SIMULATORS.md for
    the documented parity bounds the test suite enforces).
    """

    def __init__(
        self,
        wires: Sequence[Qudit],
        tensor: np.ndarray,
        dtype: "np.dtype | type | None" = None,
    ) -> None:
        wires = list(wires)
        shape = tuple(w.dimension for w in wires)
        tensor = np.asarray(tensor)
        if dtype is None:
            # Preserve an explicit complex64 tensor; promote everything
            # else (float, int, complex128) to the exact default.
            dtype = (
                np.complex64
                if tensor.dtype == np.complex64
                else np.complex128
            )
        tensor = np.asarray(tensor, dtype=np.dtype(dtype))
        if tensor.dtype not in (np.complex64, np.complex128):
            raise ValueError(
                f"state dtype must be complex64 or complex128, "
                f"got {tensor.dtype}"
            )
        if tensor.shape != shape:
            if tensor.size == int(np.prod(shape)):
                tensor = tensor.reshape(shape)
            else:
                raise DimensionMismatchError(
                    f"tensor of shape {tensor.shape} does not fit wires "
                    f"with dimensions {shape}"
                )
        self._wires = wires
        self._axis = {wire: k for k, wire in enumerate(wires)}
        self._tensor = tensor
        #: True while the tensor may be seen outside this state (the
        #: caller's array, or one handed out by ``tensor``/``vector``);
        #: in-place updates copy it first.
        self._shared = True

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def computational_basis(
        cls,
        wires: Sequence[Qudit],
        values: Sequence[int],
        dtype: "np.dtype | type" = np.complex128,
    ) -> "StateVector":
        """|values> on the given wires."""
        wires = list(wires)
        check_basis_values(wires, values)
        shape = tuple(w.dimension for w in wires)
        tensor = np.zeros(shape, dtype=np.dtype(dtype))
        tensor[tuple(values)] = 1.0
        state = cls(wires, tensor)
        state._shared = False
        return state

    @classmethod
    def zero(
        cls,
        wires: Sequence[Qudit],
        dtype: "np.dtype | type" = np.complex128,
    ) -> "StateVector":
        """|00...0>."""
        return cls.computational_basis(wires, [0] * len(wires), dtype)

    @classmethod
    def random(
        cls,
        wires: Sequence[Qudit],
        rng: np.random.Generator | None = None,
        levels_per_wire: Mapping[Qudit, int] | None = None,
    ) -> "StateVector":
        """Haar-random state, optionally restricted to lower levels.

        ``levels_per_wire`` caps the populated levels of selected wires.
        The paper's experiments initialise *qubit* inputs even on qutrit
        hardware (inputs/outputs stay binary; |2> is transient), so the
        Figure 11 harness passes ``levels_per_wire={wire: 2}`` for qutrits.

        Cost is O(prod levels) — a single Gaussian column, not a truncated
        Haar unitary (Sec. 6.2).
        """
        rng = rng or np.random.default_rng()
        wires = list(wires)
        caps = []
        for wire in wires:
            cap = wire.dimension
            if levels_per_wire is not None:
                cap = min(cap, levels_per_wire.get(wire, cap))
            caps.append(cap)
        sub_dim = int(np.prod(caps))
        column = random_state_vector(sub_dim, rng).reshape(caps)
        tensor = np.zeros(tuple(w.dimension for w in wires), dtype=complex)
        tensor[tuple(slice(0, c) for c in caps)] = column
        return cls(wires, tensor)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def wires(self) -> list[Qudit]:
        """Wire order of the tensor axes."""
        return list(self._wires)

    @property
    def tensor(self) -> np.ndarray:
        """The underlying tensor (a live view; copy before mutating)."""
        self._shared = True
        return self._tensor

    @property
    def vector(self) -> np.ndarray:
        """Flat state vector (first wire most significant)."""
        self._shared = True
        return self._tensor.reshape(-1)

    @property
    def shape(self) -> tuple[int, ...]:
        """The wires' dimensions (the tensor's shape; hands out no view)."""
        return self._tensor.shape

    @property
    def dtype(self) -> np.dtype:
        """Amplitude dtype (``complex128``, or ``complex64`` in bulk mode)."""
        return self._tensor.dtype

    def norm(self) -> float:
        """Euclidean norm of the state."""
        return float(np.linalg.norm(self._tensor))

    def copy(self) -> "StateVector":
        """Deep copy (dtype preserved)."""
        return self._private(self._tensor.copy())

    def astype(self, dtype: "np.dtype | type") -> "StateVector":
        """The same state at another amplitude precision (always a copy)."""
        return self._private(
            self._tensor.astype(np.dtype(dtype), copy=True)
        )

    def _private(self, tensor: np.ndarray) -> "StateVector":
        """A state over this one's wires owning the fresh ``tensor``."""
        state = StateVector(self._wires, tensor)
        state._shared = False
        return state

    def probability_of(self, values: Sequence[int]) -> float:
        """Probability of measuring the basis state ``values``."""
        return float(np.abs(self._tensor[tuple(values)]) ** 2)

    def level_populations(self, wire: Qudit) -> np.ndarray:
        """Marginal probability of each level of ``wire``.

        Used by the idle-error channel, whose damping probability depends on
        the current excitation of each qudit (Sec. 6.1, item 2).
        """
        return self.populations_from(self.probability_tensor(), wire)

    def probability_tensor(self) -> np.ndarray:
        """|amplitude|^2 tensor — compute once, reuse for many marginals."""
        return np.abs(self._tensor) ** 2

    def populations_from(
        self, probability_tensor: np.ndarray, wire: Qudit
    ) -> np.ndarray:
        """Marginal of ``wire`` from a precomputed probability tensor."""
        axis = self._axis[wire]
        other_axes = tuple(
            k for k in range(probability_tensor.ndim) if k != axis
        )
        return probability_tensor.sum(axis=other_axes)

    def overlap(self, other: "StateVector") -> complex:
        """<self|other> (wire orders must match)."""
        if self._wires != other._wires:
            raise SimulationError("states have different wire orders")
        return complex(np.vdot(self._tensor, other._tensor))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2 — the paper's reliability metric."""
        return float(np.abs(self.overlap(other)) ** 2)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def apply_operation(self, op: GateOperation) -> None:
        """Apply a gate operation in place, structure permitting.

        The gate takes its :class:`~repro.sim.kernels.GatePlan` step: a
        permutation gate moves amplitudes in one flat gather over the
        mixed-radix joint index (:func:`repro.sim.kernels
        .permutation_gather`, cached per placement), a diagonal gate is
        one multiply, a dense controlled gate updates only its control
        block, and any other gate contracts its kernel.  A register too
        wide for cached gathers applies a permutation gate on its
        control block or kernel instead.  The verdicts, kernels and
        index maps are cached process-wide on the gate's canonical
        spec, so a step costs a few dict lookups to plan.
        """
        plan = GatePlan(self._tensor.shape, dtype=self._tensor.dtype)
        steps = plan.moment([(op, [self._axis[w] for w in op.qudits])])
        steps += plan.close()
        if self._shared and steps[0][0] in IN_PLACE:
            self._tensor = self._tensor.copy()
        # In place on the (now private) tensor, or a fresh array: either
        # way the state owns the result.
        self._tensor = apply_steps(self._tensor, steps)
        self._shared = False

    def _evolve(self, steps) -> None:
        """Run :class:`~repro.sim.kernels.GatePlan` steps on this
        state's register, which it must own."""
        # Pop the register so that apply_steps holds its only reference:
        # a step that replaces the array then frees the one before it.
        self._tensor = apply_steps(self.__dict__.pop("_tensor"), steps)

    def apply_operation_dense(self, op: GateOperation) -> None:
        """Apply a gate operation via dense tensor contraction.

        The pre-v2 hot path, preserved verbatim as the parity oracle for
        the permutation fast path (``BENCH_state.json`` and the property
        suite pin the two against each other).  The operator comes from
        the process-wide kernel cache
        (:func:`repro.sim.kernels.gate_kernel`), so a gate that repeats
        across moments, basis inputs, or runs pays its ``unitary()``
        and reshape cost once per canonical spec, not per application.
        """
        kernel = gate_kernel(op, self._tensor.dtype)
        axes = [self._axis[w] for w in op.qudits]
        self._tensor = apply_block(self._tensor, kernel.block, axes)

    def apply_matrix(
        self, matrix: np.ndarray, wires: Sequence[Qudit]
    ) -> None:
        """Apply an arbitrary (not necessarily unitary) matrix to ``wires``.

        Non-unitary matrices arise as Kraus operators during trajectory
        simulation; callers renormalise afterwards.  The state's dtype
        is preserved (the matrix is cast to it).
        """
        axes = [self._axis[w] for w in wires]
        dims = tuple(w.dimension for w in wires)
        block = np.asarray(matrix, dtype=self._tensor.dtype).reshape(
            dims + dims
        )
        self._tensor = apply_block(self._tensor, block, axes)

    def apply_diagonal(self, diagonal: np.ndarray, wire: Qudit) -> None:
        """Multiply one wire's levels by ``diagonal`` (cheap broadcast).

        Fast path for diagonal single-wire operators — the amplitude-
        damping no-jump branch and dephasing kicks, which fire on every
        wire every moment during noisy simulation.
        """
        axis = self._axis[wire]
        shape = [1] * self._tensor.ndim
        shape[axis] = len(diagonal)
        diagonal = np.asarray(diagonal, dtype=self._tensor.dtype)
        self._tensor = self._tensor * diagonal.reshape(shape)

    def renormalize(self) -> float:
        """Scale the state back to unit norm; returns the prior norm."""
        norm = self.norm()
        if norm == 0.0:
            raise SimulationError("cannot renormalise the zero state")
        self._tensor = self._tensor / norm
        return norm
