"""Gate abstractions.

A :class:`Gate` is defined by the tuple of qudit dimensions it acts on and a
unitary matrix over the joint space (row/column index = mixed-radix value of
the wires, first wire most significant — the same convention numpy's
``reshape`` gives when the state is stored as a tensor).

Gates that permute computational basis states additionally expose a
*classical action*, which is what makes the paper's linear-time circuit
verification possible (Sec. 6): a classical input can be pushed through a
permutation circuit in O(width) per gate without ever forming a state
vector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, NotClassicalError
from ..linalg import is_permutation_matrix, is_unitary, permutation_of
from .intern import exact, intern_gate
from .spec import GATE_REGISTRY, GateSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..circuits.operation import GateOperation
    from ..qudits import Qudit


def values_to_index(values: Sequence[int], dims: Sequence[int]) -> int:
    """Mixed-radix encode ``values`` (first wire most significant)."""
    index = 0
    for value, dim in zip(values, dims, strict=True):
        if not 0 <= value < dim:
            raise ValueError(f"value {value} out of range for dimension {dim}")
        index = index * dim + value
    return index


def index_to_values(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix decode ``index`` into per-wire values."""
    values = []
    for dim in reversed(dims):
        values.append(index % dim)
        index //= dim
    return tuple(reversed(values))


class Gate(ABC):
    """A unitary on a fixed tuple of qudit dimensions."""

    @property
    @abstractmethod
    def dims(self) -> tuple[int, ...]:
        """Dimensions of the wires this gate acts on, in order."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short human-readable name used in diagrams and reprs."""

    @abstractmethod
    def unitary(self) -> np.ndarray:
        """The gate's unitary matrix over the joint wire space."""

    # ------------------------------------------------------------------
    # Derived behaviour
    # ------------------------------------------------------------------

    @property
    def num_qudits(self) -> int:
        """Number of wires the gate spans."""
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        """Dimension of the joint space the unitary acts on."""
        product = 1
        for d in self.dims:
            product *= d
        return product

    def inverse(self) -> "Gate":
        """The inverse gate, derived once per gate instance.

        A gate carrying a registered semantic spec inverts through the
        registry inverse-rule table (:mod:`repro.gates.inverse`), so
        e.g. ``shift(+1)`` inverts to ``shift(+2)`` and ``T`` to
        ``T_DAG`` — named, serializable gates rather than anonymous
        dagger matrices.  Everything else falls back to the structural
        inverse of its gate class; a shared gate's structural inverse
        is itself shared, keyed on ``("__inverse__", key)``.
        """
        inverted = self._inverse_cache
        if inverted is None:
            from .inverse import semantic_inverse

            inverted = semantic_inverse(self)
            if inverted is None:
                key = self._key
                inverted = (
                    self._structural_inverse()
                    if key is None
                    else intern_gate(
                        ("__inverse__", key), self._structural_inverse
                    )
                )
            object.__setattr__(self, "_inverse_cache", inverted)
        return inverted

    def _structural_inverse(self) -> "Gate":
        """Class-level inverse fallback: wrap the conjugate transpose."""
        from .matrix import MatrixGate

        return MatrixGate(
            self.unitary().conj().T, self.dims, name=f"{self.name}^-1"
        )

    # -- structural identity and serialization --------------------------
    #
    # Every gate reports a serializable (name, params, dims) spec; the
    # registry rebuilds the gate from it (``GATE_REGISTRY.build``).  The
    # *canonical* spec additionally lowers semantic names to the gate's
    # structural class form, giving circuits a content-addressed identity
    # (same construction => same hash/fingerprint, different matrices =>
    # different fingerprints even under one display name).

    #: Semantic spec attached by registered factories (None = structural).
    _spec_override: GateSpec | None = None
    _spec_cache: GateSpec | None = None
    _canonical_cache: GateSpec | None = None
    _inverse_cache: "Gate | None" = None
    #: Intern key (:mod:`repro.gates.intern`); a keyed gate is shared
    #: between circuits and immutable.
    _key = None
    #: Process-local int id of the canonical spec (``spec_id``).
    _gate_id: int | None = None

    def spec(self) -> GateSpec:
        """The serializable spec of this gate (computed once).

        Round-trip contract: ``GATE_REGISTRY.build(gate.spec()) == gate``.
        """
        spec = self._spec_override
        if spec is None:
            spec = self._spec_cache
            if spec is None:
                spec = self._structural_spec()
                object.__setattr__(self, "_spec_cache", spec)
        return spec

    def canonical_spec(self) -> GateSpec:
        """The structural (class-level) spec used for equality and hashing.

        Semantic registry names are lowered to the underlying gate-class
        form and display names are dropped, so a registered constant and
        a hand-built equivalent (same class, same data) compare equal —
        identity is content-addressed.  Display names still serialize
        (via :meth:`spec`); they just don't define identity, which is
        what makes e.g. ``X.inverse() == X`` hold for the self-inverse
        permutation gates.
        """
        if self._canonical_cache is None:
            object.__setattr__(
                self, "_canonical_cache", self._canonical_spec()
            )
        return self._canonical_cache  # type: ignore[return-value]

    def _structural_spec(self) -> GateSpec:
        """Fallback structural spec: the full matrix plus display name.

        Subclasses with more compact structure (permutations, diagonals,
        controls) override this; anything else serializes as its unitary,
        so no gate is unserializable.
        """
        matrix = self.unitary()
        rows = tuple(tuple(complex(x) for x in row) for row in matrix)
        return GateSpec("__matrix__", (self.name, rows), self.dims)

    def _canonical_spec(self) -> GateSpec:
        matrix = self.unitary()
        rows = tuple(tuple(complex(x) for x in row) for row in matrix)
        return GateSpec("__matrix__", (rows,), self.dims)

    def _set_spec(self, spec: GateSpec) -> "Gate":
        """Attach a semantic spec (factory-internal; returns ``self``).

        Raises ``TypeError`` on a shared (keyed) gate: what a shared
        gate serializes as never changes.
        """
        if self._key is not None:
            raise TypeError(
                f"gate {self.name} is shared (interned) and immutable"
            )
        object.__setattr__(self, "_spec_override", spec)
        object.__setattr__(self, "_inverse_cache", None)
        return self

    def __getstate__(self) -> dict:
        # The int id is process-local: the loading process assigns its own.
        state = self.__dict__.copy()
        state.pop("_gate_id", None)
        return state

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Gate):
            return NotImplemented
        return self.canonical_spec() == other.canonical_spec()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self.canonical_spec())

    # -- classical (permutation) behaviour ------------------------------

    _perm_cache: list[int] | None = None

    def _permutation(self) -> list[int]:
        if self._perm_cache is None:
            matrix = self.unitary()
            if not is_permutation_matrix(matrix):
                raise NotClassicalError(
                    f"gate {self.name} is not a basis permutation"
                )
            # object.__setattr__ keeps this compatible with frozen dataclasses
            object.__setattr__(self, "_perm_cache", permutation_of(matrix))
        return self._perm_cache  # type: ignore[return-value]

    @property
    def is_classical(self) -> bool:
        """True iff the gate maps computational basis states to basis states."""
        try:
            self._permutation()
        except NotClassicalError:
            return False
        return True

    def permutation(self) -> list[int]:
        """The gate's full basis permutation ``i -> perm[i]``.

        Indices are mixed-radix encodings of the wire values (first wire
        most significant).  This is the *whole-domain* classical action —
        :func:`repro.sim.kernels.permutation_kernel` lowers it once per
        canonical spec into the batched engines' lookup tables, and it is
        what decides circuit classicality (a gate that happens to act
        classically on some inputs but not all is not classical).

        Raises :class:`NotClassicalError` for non-permutation gates.
        """
        return list(self._permutation())

    def classical_action(self, values: Sequence[int]) -> tuple[int, ...]:
        """Image of the basis state ``values`` under the gate.

        Raises :class:`NotClassicalError` for non-permutation gates.
        """
        perm = self._permutation()
        index = values_to_index(values, self.dims)
        return index_to_values(perm[index], self.dims)

    # -- diagonal behaviour ---------------------------------------------
    #
    # Diagonal gates commute with each other and merge into a single
    # phase gate, which is what the optimizer's fusion pass exploits
    # (phase-gadget style, after arXiv:2204.13681).  Like classicality,
    # diagonality is decided once per gate instance and cached.

    #: False = not yet computed; None = not diagonal; ndarray = phases.
    _diag_cache: "np.ndarray | None | bool" = False

    def diagonal_phases(self) -> "np.ndarray | None":
        """The gate's diagonal as a phase vector, or None if not diagonal.

        A gate is *diagonal* when its unitary is a diagonal matrix in
        the computational basis — it rephases every basis state without
        mixing them.  The returned vector lists the phase applied to
        each mixed-radix basis state (a fresh copy; safe to mutate).
        """
        if self._diag_cache is False:
            unitary = self.unitary()
            diag = np.diagonal(unitary).copy()
            result = (
                diag
                if np.allclose(unitary, np.diag(diag), atol=1e-9)
                else None
            )
            object.__setattr__(self, "_diag_cache", result)
        cached = self._diag_cache
        if cached is None:
            return None
        return np.array(cached, copy=True)

    @property
    def is_diagonal(self) -> bool:
        """True iff the gate's unitary is diagonal (pure rephasing)."""
        return self.diagonal_phases() is not None

    # -- construction helpers -------------------------------------------

    def on(self, *wires: "Qudit") -> "GateOperation":
        """Bind the gate to concrete wires, returning an operation."""
        from ..circuits.operation import GateOperation

        return GateOperation(self, tuple(wires))

    def validate_wires(self, wires: Sequence["Qudit"]) -> None:
        """Check arity and per-wire dimensions; raise on mismatch."""
        if len(wires) != self.num_qudits:
            raise DimensionMismatchError(
                f"gate {self.name} spans {self.num_qudits} wires, "
                f"got {len(wires)}"
            )
        for wire, dim in zip(wires, self.dims):
            if wire.dimension != dim:
                raise DimensionMismatchError(
                    f"gate {self.name} expects dimension {dim} on wire "
                    f"{wire}, which has dimension {wire.dimension}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} dims={self.dims}>"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class PermutationGate(Gate):
    """A classical reversible gate given directly by a basis permutation.

    ``mapping[i] = j`` means basis state ``i`` maps to basis state ``j``
    (indices are mixed-radix encodings of the wire values).
    """

    def __init__(
        self, mapping: Sequence[int], dims: Sequence[int], name: str
    ) -> None:
        dims = tuple(dims)
        total = 1
        for d in dims:
            total *= d
        if sorted(mapping) != list(range(total)):
            raise ValueError(
                f"mapping {mapping!r} is not a permutation of 0..{total - 1}"
            )
        self._mapping = list(mapping)
        self._dims = dims
        self._name = name

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def name(self) -> str:
        return self._name

    def unitary(self) -> np.ndarray:
        total = self.total_dim
        matrix = np.zeros((total, total), dtype=complex)
        for src, dst in enumerate(self._mapping):
            matrix[dst, src] = 1.0
        return matrix

    def _permutation(self) -> list[int]:
        return self._mapping

    def _structural_spec(self) -> GateSpec:
        return GateSpec(
            "__perm__",
            (self._name, tuple(int(v) for v in self._mapping)),
            self._dims,
        )

    def _canonical_spec(self) -> GateSpec:
        return GateSpec(
            "__perm__",
            (tuple(int(v) for v in self._mapping),),
            self._dims,
        )

    def _structural_inverse(self) -> "PermutationGate":
        inverse_map = [0] * len(self._mapping)
        for src, dst in enumerate(self._mapping):
            inverse_map[dst] = src
        return PermutationGate(inverse_map, self._dims, f"{self.name}^-1")


def permutation_gate(
    mapping: Sequence[int], dims: Sequence[int], name: str
) -> PermutationGate:
    """A :class:`PermutationGate`, shared per exact (name, mapping, dims)."""
    mapping, dims = tuple(mapping), tuple(dims)
    if not exact(name, *mapping, *dims):
        return PermutationGate(mapping, dims, name)
    return intern_gate(
        ("__perm__", (name, mapping), dims),
        lambda: PermutationGate(mapping, dims, name),
    )


class PhasedGate(Gate):
    """A diagonal gate ``diag(phases)`` (all basis states kept, rephased)."""

    def __init__(
        self, phases: Sequence[complex], dims: Sequence[int], name: str
    ) -> None:
        self._phases = np.asarray(phases, dtype=complex)
        self._dims = tuple(dims)
        if not np.allclose(np.abs(self._phases), 1.0, atol=1e-9):
            raise ValueError("diagonal entries must have unit magnitude")
        total = 1
        for d in self._dims:
            total *= d
        if self._phases.shape != (total,):
            raise DimensionMismatchError(
                f"need {total} phases for dims {self._dims}, "
                f"got {self._phases.shape}"
            )
        self._name = name

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def name(self) -> str:
        return self._name

    def unitary(self) -> np.ndarray:
        return np.diag(self._phases)

    def _structural_spec(self) -> GateSpec:
        return GateSpec(
            "__phased__",
            (self._name, tuple(complex(p) for p in self._phases)),
            self._dims,
        )

    def _canonical_spec(self) -> GateSpec:
        return GateSpec(
            "__phased__",
            (tuple(complex(p) for p in self._phases),),
            self._dims,
        )

    def _structural_inverse(self) -> "PhasedGate":
        return PhasedGate(self._phases.conj(), self._dims, f"{self.name}^-1")

    def diagonal_phases(self) -> np.ndarray:
        return self._phases.copy()


# -- structural constructors -------------------------------------------------


def _build_perm(spec: GateSpec) -> PermutationGate:
    name, mapping = spec.params
    return PermutationGate(list(mapping), spec.dims, name)


def _build_phased(spec: GateSpec) -> PhasedGate:
    name, phases = spec.params
    return PhasedGate(list(phases), spec.dims, name)


GATE_REGISTRY.register("__perm__", _build_perm)
GATE_REGISTRY.register("__phased__", _build_phased)


def validated_unitary(matrix: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Coerce and validate a unitary of the right size for ``dims``."""
    matrix = np.asarray(matrix, dtype=complex)
    total = 1
    for d in dims:
        total *= d
    if matrix.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {matrix.shape} does not match dims {tuple(dims)} "
            f"(expected {(total, total)})"
        )
    if not is_unitary(matrix, atol=1e-7):
        raise ValueError("matrix is not unitary")
    return matrix
