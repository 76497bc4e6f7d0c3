"""Qudit identifiers.

The paper operates on *mixed-radix* wires: the qubit baselines use two-level
wires, the qutrit construction uses three-level wires, and the Lanyon/Ralph
baseline operates its target as a d = N-level qudit.  A :class:`Qudit` is a
lightweight, hashable identifier carrying a name/index and a dimension.

Wires are identity objects: two qudits are the same wire iff their
``(index, dimension)`` pair is equal.  Circuits key moments on these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exceptions import DimensionMismatchError

#: Dimension of a qubit wire.
QUBIT_D = 2
#: Dimension of a qutrit wire.
QUTRIT_D = 3


@dataclass(frozen=True, order=True)
class Qudit:
    """A named wire with a fixed number of levels.

    Parameters
    ----------
    index:
        Position of the wire; used for ordering and display.
    dimension:
        Number of levels (2 = qubit, 3 = qutrit, ...).
    """

    index: int
    dimension: int = QUTRIT_D

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise DimensionMismatchError(
                f"qudit dimension must be >= 2, got {self.dimension}"
            )
        if self.index < 0:
            raise ValueError(f"qudit index must be >= 0, got {self.index}")
        # Wires key every circuit index, wire table and distinctness
        # check, so the hash the dataclass would rebuild on every use is
        # computed once (same value; not a field, so equality, ordering
        # and repr are unchanged).
        object.__setattr__(self, "_hash", hash((self.index, self.dimension)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = {2: "q", 3: "t"}.get(self.dimension, f"d{self.dimension}_")
        return f"{kind}{self.index}"

    @property
    def levels(self) -> range:
        """The valid basis values ``0 .. dimension-1`` of this wire."""
        return range(self.dimension)


def qubits(count: int, start: int = 0) -> list[Qudit]:
    """Return ``count`` two-level wires with consecutive indices."""
    return [Qudit(start + i, QUBIT_D) for i in range(count)]


def qutrits(count: int, start: int = 0) -> list[Qudit]:
    """Return ``count`` three-level wires with consecutive indices."""
    return [Qudit(start + i, QUTRIT_D) for i in range(count)]


def qudit_line(dimensions: Sequence[int], start: int = 0) -> list[Qudit]:
    """Return wires with the given per-wire dimensions, consecutive indices."""
    return [Qudit(start + i, d) for i, d in enumerate(dimensions)]


def check_distinct(wires: Iterable[Qudit]) -> None:
    """Raise :class:`ValueError` if any wire appears twice."""
    seen: set[Qudit] = set()
    for wire in wires:
        if wire in seen:
            raise ValueError(f"duplicate qudit {wire!r} in operation")
        seen.add(wire)


def total_dimension(wires: Sequence[Qudit]) -> int:
    """Product of wire dimensions: the size of the joint state space."""
    product = 1
    for wire in wires:
        product *= wire.dimension
    return product
