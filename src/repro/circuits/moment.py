"""A moment: operations executing simultaneously on disjoint wires.

Moments are the unit of time in the paper's noise methodology (Fig. 8):
gate errors attach to each operation in the moment, then idle errors attach
to *every* wire, scaled by the moment's duration.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..exceptions import SchedulingError
from ..gates.spec import GateRegistry
from ..qudits import Qudit
from .operation import GateOperation


class Moment:
    """An immutable set of wire-disjoint simultaneous operations."""

    __slots__ = ("_operations", "_qudits")

    def __init__(self, operations: Iterable[GateOperation] = ()) -> None:
        ops = tuple(operations)
        used: set[Qudit] = set()
        for op in ops:
            overlap = used.intersection(op.qudits)
            if overlap:
                raise SchedulingError(
                    f"moment operations overlap on wires {sorted(overlap)}"
                )
            used.update(op.qudits)
        self._operations = ops
        self._qudits = frozenset(used)

    @classmethod
    def _disjoint(cls, operations: Iterable[GateOperation]) -> "Moment":
        """A moment of operations already known to use disjoint wires.

        Skips the overlap check: only :class:`Circuit` calls this, for
        moments its ASAP rule built (an operation joins a moment only
        after every wire it uses was last used in an earlier one).  The
        wire set is left for :attr:`qudits` to fill on first read.
        """
        moment = object.__new__(cls)
        moment._operations = tuple(operations)
        moment._qudits = None
        return moment

    @property
    def operations(self) -> tuple[GateOperation, ...]:
        """Operations in this moment."""
        return self._operations

    @property
    def qudits(self) -> frozenset[Qudit]:
        """Wires touched by this moment."""
        if self._qudits is None:
            self._qudits = frozenset(
                [w for op in self._operations for w in op.qudits]
            )
        return self._qudits

    @property
    def has_multi_qudit_gate(self) -> bool:
        """True iff any operation spans 2+ wires (sets the moment duration)."""
        return any(op.is_multi_qudit for op in self._operations)

    def operates_on(self, wires: Iterable[Qudit]) -> bool:
        """True iff this moment touches any of ``wires``."""
        return not self.qudits.isdisjoint(wires)

    def with_operation(self, op: GateOperation) -> "Moment":
        """A new moment with ``op`` added (wires must be free)."""
        return Moment(self._operations + (op,))

    def inverse(self) -> "Moment":
        """Moment of the inverses of all operations."""
        return Moment(op.inverse() for op in self._operations)

    # -- serialization and structural identity ---------------------------

    def to_dict(self) -> dict:
        """Plain-data form: the operations in insertion order."""
        return {"operations": [op.to_dict() for op in self._operations]}

    @classmethod
    def from_dict(
        cls, data: Mapping, registry: GateRegistry | None = None
    ) -> "Moment":
        """Rebuild a moment from :meth:`to_dict` data."""
        return cls(
            GateOperation.from_dict(op, registry)
            for op in data["operations"]
        )

    def __eq__(self, other: object) -> bool:
        # Operations within a moment are simultaneous; order is
        # presentation only, so compare as sets.
        if not isinstance(other, Moment):
            return NotImplemented
        return frozenset(self._operations) == frozenset(other._operations)

    def __hash__(self) -> int:
        return hash(frozenset(self._operations))

    def __iter__(self) -> Iterator[GateOperation]:
        return iter(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Moment[" + ", ".join(repr(op) for op in self._operations) + "]"
