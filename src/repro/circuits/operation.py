"""A gate bound to concrete wires."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..exceptions import DimensionMismatchError
from ..gates.base import Gate
from ..gates.spec import GATE_REGISTRY, GateRegistry, GateSpec
from ..qudits import Qudit, check_distinct


class GateOperation:
    """``gate`` applied to an ordered tuple of distinct wires."""

    __slots__ = ("_gate", "_qudits", "_interned", "_cell")

    def __init__(self, gate: Gate, wires: Sequence[Qudit]) -> None:
        wires = tuple(wires)
        check_distinct(wires)
        gate.validate_wires(wires)
        self._gate = gate
        self._qudits = wires
        #: Process-local int key of the wires and gate, filled on first
        #: use by :func:`repro.optimize.commutation.interned`.
        self._interned = None
        #: Fingerprint cell text, filled on first use by
        #: :meth:`fingerprint_cell`.
        self._cell = None

    @property
    def gate(self) -> Gate:
        """The unbound gate."""
        return self._gate

    @property
    def qudits(self) -> tuple[Qudit, ...]:
        """The wires the gate acts on, in gate order."""
        return self._qudits

    @property
    def num_qudits(self) -> int:
        """Number of wires spanned."""
        return len(self._qudits)

    @property
    def is_multi_qudit(self) -> bool:
        """True for entangling (2+ wire) operations."""
        return len(self._qudits) >= 2

    def inverse(self) -> "GateOperation":
        """The inverse operation on the same wires."""
        return GateOperation(self._gate.inverse(), self._qudits)

    def unitary(self) -> np.ndarray:
        """The gate's matrix (not expanded to any ambient space)."""
        return self._gate.unitary()

    def classical_action(
        self, assignment: Mapping[Qudit, int]
    ) -> dict[Qudit, int]:
        """Apply the gate's permutation action to a wire-value assignment.

        Returns a dict holding only the wires this operation touches; wires
        absent from ``assignment`` raise ``KeyError``.
        """
        before = tuple(assignment[w] for w in self._qudits)
        after = self._gate.classical_action(before)
        return dict(zip(self._qudits, after))

    def with_wires(self, mapping: Mapping[Qudit, Qudit]) -> "GateOperation":
        """Re-bind the same gate onto substituted wires."""
        new_wires = tuple(mapping.get(w, w) for w in self._qudits)
        for old, new in zip(self._qudits, new_wires):
            if old.dimension != new.dimension:
                raise DimensionMismatchError(
                    f"cannot remap {old} (d={old.dimension}) to {new} "
                    f"(d={new.dimension})"
                )
        return GateOperation(self._gate, new_wires)

    # -- serialization and structural identity ---------------------------

    def to_dict(self) -> dict:
        """Plain-data form: the gate's spec plus ``[index, dim]`` wires."""
        return {
            "gate": self._gate.spec().to_dict(),
            "wires": [[w.index, w.dimension] for w in self._qudits],
        }

    def fingerprint_cell(self) -> str:
        """This operation's term in ``circuit_fingerprint``.

        The compact sorted-key JSON text of ``{"gate": <canonical gate
        spec>, "wires": [[index, dim], ...]}``, built once and cached.
        """
        cell = self._cell
        if cell is None:
            wires = ",".join(
                f"[{w.index},{w.dimension}]" for w in self._qudits
            )
            cell = (
                f'{{"gate":{self._gate.canonical_spec().to_json()},'
                f'"wires":[{wires}]}}'
            )
            self._cell = cell
        return cell

    @classmethod
    def from_dict(
        cls, data: Mapping, registry: GateRegistry | None = None
    ) -> "GateOperation":
        """Rebuild an operation from :meth:`to_dict` data."""
        registry = registry if registry is not None else GATE_REGISTRY
        gate = registry.build(GateSpec.from_dict(data["gate"]))
        wires = tuple(Qudit(index, dim) for index, dim in data["wires"])
        return cls(gate, wires)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        wires = ", ".join(str(w) for w in self._qudits)
        return f"{self._gate.name}({wires})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GateOperation):
            return NotImplemented
        return self._qudits == other._qudits and self._gate == other._gate

    def __hash__(self) -> int:
        return hash((self._qudits, self._gate))

    def __reduce__(self):
        # The interned key holds process-local ids: never pickle it.
        return (type(self), (self._gate, self._qudits))
