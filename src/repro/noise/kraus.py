"""Kraus-operator channels and the trajectory-sampling interface.

The paper's simulator adopts the quantum-trajectory methodology (Sec. 6.2):
instead of evolving a d^N x d^N density matrix, a single state vector is
propagated and one error term is drawn at random per application.  Two
channel families cover everything the noise models need:

* :class:`UnitaryMixtureChannel` — "with probability p_i apply unitary E_i"
  (depolarizing gate errors, idle dephasing).  Probabilities are
  state-independent, so sampling never inspects the state.
* :class:`KrausChannel` — general operators {K_i}; the probability of branch
  i on state |psi> is ||K_i |psi>||^2 (amplitude damping, whose effect
  depends on the qudit's excitation — Sec. 6.1 item 2).

Both families expose two application surfaces:

* the original per-trajectory sampling (``apply_sampled``), used by the
  looped :class:`~repro.sim.trajectory.TrajectorySimulator`;
* accessors (``branch_index``, ``gram_diagonal_matrix``,
  ``operator``/``operator_diagonal``) that let the fused trajectory
  engine draw every row's branch from one uniform array and apply only
  the branches that fired.

The exact density-matrix engine does not sample at all: it consumes the
full Kraus decomposition through
:func:`repro.sim.kernels.channel_kernel`, which lowers mixtures to
explicit Kraus form via :attr:`UnitaryMixtureChannel.terms`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import NoiseModelError
from ..qudits import Qudit

if TYPE_CHECKING:  # pragma: no cover - the channels only annotate states;
    # a runtime import would close the cycle sim.state -> sim.kernels ->
    # noise.kraus -> sim.state now that StateVector uses the kernel cache.
    from ..sim.state import StateVector


class UnitaryMixtureChannel:
    """A probabilistic mixture of unitary errors plus an identity branch."""

    def __init__(
        self,
        name: str,
        dims: Sequence[int],
        terms: Sequence[tuple[float, np.ndarray]],
        symmetric_pauli: float | None = None,
    ) -> None:
        self._name = name
        self._dims = tuple(dims)
        self._symmetric_pauli = symmetric_pauli
        total_dim = 1
        for d in self._dims:
            total_dim *= d
        probs = []
        ops = []
        for prob, op in terms:
            op = np.asarray(op, dtype=complex)
            if prob < 0:
                raise NoiseModelError(f"negative error probability {prob}")
            if op.shape != (total_dim, total_dim):
                raise NoiseModelError(
                    f"error operator shape {op.shape} does not match dims "
                    f"{self._dims}"
                )
            probs.append(float(prob))
            ops.append(op)
        self._probs = np.asarray(probs)
        total = float(self._probs.sum())
        if total > 1 + 1e-9:
            raise NoiseModelError(
                f"error probabilities sum to {total} > 1 in channel {name}"
            )
        self._ops = ops
        self._identity_prob = max(0.0, 1.0 - total)
        self._cumulative = np.cumsum(self._probs) if probs else np.array([])
        self._diagonals = [
            np.diagonal(op).copy()
            if np.allclose(op, np.diag(np.diagonal(op)), atol=1e-12)
            else None
            for op in ops
        ]

    @property
    def name(self) -> str:
        """Channel label (diagnostics)."""
        return self._name

    @property
    def dims(self) -> tuple[int, ...]:
        """Wire dimensions the channel acts on."""
        return self._dims

    @property
    def error_probability(self) -> float:
        """Total probability that any non-identity branch fires."""
        return 1.0 - self._identity_prob

    @property
    def num_error_terms(self) -> int:
        """Number of non-identity branches (the paper's 'error channels')."""
        return len(self._ops)

    @property
    def symmetric_pauli_probability(self) -> float | None:
        """Per-term probability when the channel is a full symmetric
        Pauli (depolarizing) mixture, else ``None``.

        Declared at construction by the depolarizing factories.  A
        symmetric mixture over the complete generalized-Pauli set admits
        the twirl identity ``sum_P P rho P^dag = d * I (x) Tr_A rho``,
        which the density engine uses to apply the whole channel as one
        partial trace instead of ``d^2 - 1`` operator conjugations.
        """
        return self._symmetric_pauli

    @property
    def terms(self) -> list[tuple[float, np.ndarray]]:
        """``(probability, operator)`` pairs of the non-identity branches.

        The public face of the channel's Kraus decomposition: the kernel
        cache lowers these (with the implicit identity branch) to explicit
        Kraus operators for the density engine.
        """
        return [
            (float(p), op.copy())
            for p, op in zip(self._probs, self._ops)
        ]

    def operator(self, index: int) -> np.ndarray:
        """The ``index``-th non-identity branch operator (live view)."""
        return self._ops[index]

    def operator_diagonal(self, index: int) -> np.ndarray | None:
        """Branch ``index``'s diagonal when the operator is diagonal.

        ``None`` for non-diagonal branches; the fused engine uses this
        to replace a tensordot with a broadcast multiply.
        """
        return self._diagonals[index]

    def branch_index(self, u: float) -> int | None:
        """The branch a uniform draw ``u`` in [0, 1) selects.

        ``None`` means the identity (no error): ``u`` below the identity
        probability.  Above it, ``u`` walks the cumulative table of the
        error branches, so zero-probability branches are never chosen.
        """
        if u < self._identity_prob:
            return None
        u -= self._identity_prob
        index = int(np.searchsorted(self._cumulative, u, side="right"))
        return min(index, len(self._ops) - 1)

    def sample_index(self, rng: np.random.Generator) -> int | None:
        """Draw a branch index; ``None`` means the identity (no error)."""
        return self.branch_index(rng.random())

    def sample(self, rng: np.random.Generator) -> np.ndarray | None:
        """Draw one branch; ``None`` means the identity (no error)."""
        index = self.sample_index(rng)
        return None if index is None else self._ops[index]

    def apply_sampled(
        self,
        state: StateVector,
        wires: Sequence[Qudit],
        rng: np.random.Generator,
    ) -> bool:
        """Sample a branch and apply it; returns True iff an error fired."""
        index = self.sample_index(rng)
        if index is None:
            return False
        diagonal = self._diagonals[index]
        if diagonal is not None and len(wires) == 1:
            state.apply_diagonal(diagonal, wires[0])
        else:
            state.apply_matrix(self._ops[index], wires)
        return True


class KrausChannel:
    """A general channel {K_i} sampled with state-dependent probabilities.

    Construction validates the completeness relation sum_i K_i^dag K_i = I.
    When every K_i^dag K_i is diagonal (true for amplitude damping), branch
    probabilities come from the wire's level populations, which costs one
    O(d^N) population pass instead of one per operator.
    """

    def __init__(
        self, name: str, dims: Sequence[int], operators: Sequence[np.ndarray]
    ) -> None:
        self._name = name
        self._dims = tuple(dims)
        total_dim = 1
        for d in self._dims:
            total_dim *= d
        ops = [np.asarray(op, dtype=complex) for op in operators]
        if not ops:
            raise NoiseModelError("channel needs at least one Kraus operator")
        for op in ops:
            if op.shape != (total_dim, total_dim):
                raise NoiseModelError(
                    f"Kraus operator shape {op.shape} does not match dims "
                    f"{self._dims}"
                )
        completeness = sum(op.conj().T @ op for op in ops)
        if not np.allclose(completeness, np.eye(total_dim), atol=1e-8):
            raise NoiseModelError(
                f"channel {name} violates sum K^dag K = I"
            )
        self._ops = ops
        self._gram_diagonals = []
        self._all_diagonal = True
        for op in ops:
            gram = op.conj().T @ op
            if np.allclose(gram, np.diag(np.diagonal(gram)), atol=1e-12):
                self._gram_diagonals.append(np.real(np.diagonal(gram)))
            else:
                self._all_diagonal = False
                self._gram_diagonals.append(None)
        self._op_diagonals = [
            np.diagonal(op).copy()
            if np.allclose(op, np.diag(np.diagonal(op)), atol=1e-12)
            else None
            for op in ops
        ]
        # (num_ops, total_dim) stack of the diagonal Gram matrices, used
        # by the fused engine to turn populations into branch
        # probabilities with one matmul.
        self._gram_matrix = (
            np.stack([np.asarray(d) for d in self._gram_diagonals])
            if self._all_diagonal
            else None
        )

    @property
    def name(self) -> str:
        """Channel label (diagnostics)."""
        return self._name

    @property
    def dims(self) -> tuple[int, ...]:
        """Wire dimensions the channel acts on."""
        return self._dims

    @property
    def operators(self) -> list[np.ndarray]:
        """The Kraus operators (copies)."""
        return [op.copy() for op in self._ops]

    @property
    def num_operators(self) -> int:
        """Number of Kraus operators (branch 0 is the no-jump branch)."""
        return len(self._ops)

    @property
    def gram_diagonal_matrix(self) -> np.ndarray | None:
        """``(num_ops, dim)`` stack of diagonal ``K_i^dag K_i`` entries.

        ``None`` when some Gram matrix is non-diagonal; otherwise branch
        probabilities for a stack of rows follow from
        ``populations @ gram_diagonal_matrix.T``.
        """
        return self._gram_matrix

    def operator(self, index: int) -> np.ndarray:
        """The ``index``-th Kraus operator (live view)."""
        return self._ops[index]

    def operator_diagonal(self, index: int) -> np.ndarray | None:
        """Operator ``index``'s diagonal when it is diagonal, else None."""
        return self._op_diagonals[index]

    def branch_probabilities(
        self,
        state: StateVector,
        wires: Sequence[Qudit],
        populations: np.ndarray | None = None,
    ) -> np.ndarray:
        """p_i = ||K_i |psi>||^2 for the current state.

        ``populations`` short-circuits the marginal computation when the
        caller already holds the wire's level populations (the trajectory
        simulator shares one probability-tensor pass across all wires of a
        moment).
        """
        if self._all_diagonal and len(wires) == 1:
            if populations is None:
                populations = state.level_populations(wires[0])
            probs = np.array(
                [float(diag @ populations) for diag in self._gram_diagonals]
            )
        else:
            probs = []
            for op in self._ops:
                trial = state.copy()
                trial.apply_matrix(op, wires)
                probs.append(trial.norm() ** 2)
            probs = np.asarray(probs)
        # Guard against tiny negative round-off before normalising.
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise NoiseModelError(
                f"channel {self._name} produced zero total probability"
            )
        return probs / total

    def apply_sampled(
        self,
        state: StateVector,
        wires: Sequence[Qudit],
        rng: np.random.Generator,
        populations: np.ndarray | None = None,
    ) -> int:
        """Sample a branch, apply it, renormalise; returns the branch index.

        Branch 0 is conventionally the no-jump operator, so a return value
        greater than zero means a jump (error) occurred.
        """
        probs = self.branch_probabilities(state, wires, populations)
        u = rng.random()
        index = int(np.searchsorted(np.cumsum(probs), u, side="right"))
        index = min(index, len(self._ops) - 1)
        diagonal = self._op_diagonals[index]
        if diagonal is not None and len(wires) == 1:
            state.apply_diagonal(diagonal, wires[0])
        else:
            state.apply_matrix(self._ops[index], wires)
        state.renormalize()
        return index
