"""ASAP-scheduled circuits.

``Circuit.append`` schedules each operation into the earliest moment whose
wires are all free — the same earliest-possible strategy the paper uses via
Cirq's scheduler (Sec. 6.1).  Depth therefore equals the length of the
critical path through the gate DAG, which is the paper's time-cost metric
(Sec. 2).
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import (
    ReproError,
    SchedulingError,
    SerializationError,
    SimulationError,
)
from ..gates.base import index_to_values
from ..gates.spec import GateRegistry
from ..qudits import Qudit, total_dimension
from .moment import Moment
from .operation import GateOperation

#: Format tag written by :meth:`Circuit.to_dict`.
SERIALIZATION_VERSION = 2

OpTree = GateOperation | Iterable["OpTree"]


def _flatten(tree: OpTree) -> Iterator[GateOperation]:
    if isinstance(tree, GateOperation):
        yield tree
        return
    for item in tree:
        if isinstance(item, GateOperation):
            yield item
        else:
            yield from _flatten(item)


def _floor(value: object) -> int:
    """A serialized barrier floor, which must be a plain integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"barrier floor must be an integer, got {value!r}")
    return value


class Circuit:
    """A sequence of moments over mixed-dimension wires."""

    def __init__(self, operations: OpTree = ()) -> None:
        # Each moment's operations in append order.  Appends grow these
        # lists in place; the immutable Moment of a list is built only
        # when read (see _moment_list).
        self._ops: list[list[GateOperation]] = []
        # The Moment built from each list since its last change, or None.
        self._built: list[Moment | None] = []
        # False once some entry of _built may be None.
        self._all_built = True
        # Index of the last moment using each wire, for O(1) ASAP appends.
        self._last_use: dict[Qudit, int] = {}
        # Earliest moment new appends may occupy (raised by barrier()).
        self._barrier_floor = 0
        # Every floor ever set, so composition can replay barriers.
        self._barrier_history: list[int] = []
        # Gate-count tallies, maintained on append so the count
        # properties are O(1) instead of re-walking all_operations().
        self._num_operations = 0
        self._num_multi_qudit = 0
        self.append(operations)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def append(self, operations: OpTree) -> "Circuit":
        """Append operations with earliest-possible scheduling.

        Each operation costs O(its wires): it joins the moment just
        after the latest one using any of its wires (or the barrier
        floor, whichever is later).  Returns ``self`` so building can
        be chained.
        """
        moments = self._ops
        built = self._built
        last_use = self._last_use
        self._all_built = False
        if isinstance(operations, GateOperation):
            ops: Iterable[GateOperation] = (operations,)
        else:
            ops = _flatten(operations)
        for op in ops:
            wires = op.qudits
            index = self._barrier_floor
            for wire in wires:
                used = last_use.get(wire, -1)
                if used >= index:
                    index = used + 1
            if index == len(moments):
                moments.append([op])
                built.append(None)
            else:
                moments[index].append(op)
                built[index] = None
            for wire in wires:
                last_use[wire] = index
            self._num_operations += 1
            if len(wires) >= 2:
                self._num_multi_qudit += 1
        return self

    def append_moment(self, operations: OpTree) -> "Circuit":
        """Append operations as one new moment (a scheduling barrier)."""
        self._push_moment(Moment(_flatten(operations)))
        return self

    def _push_moment(self, moment: Moment) -> None:
        """Append an already-built moment verbatim as the last moment."""
        index = len(self._ops)
        self._ops.append(list(moment.operations))
        self._built.append(moment)
        for wire in moment.qudits:
            self._last_use[wire] = index
        for op in moment:
            self._num_operations += 1
            if op.is_multi_qudit:
                self._num_multi_qudit += 1

    def _moment_list(self) -> list[Moment]:
        """Every moment as a :class:`Moment`, building only those whose
        operations changed since the last read.

        Idempotent, so threads reading one settled circuit may race
        here harmlessly: at worst both build an equal moment.
        """
        built = self._built
        if not self._all_built:
            for index, moment in enumerate(built):
                if moment is None:
                    built[index] = Moment._disjoint(self._ops[index])
            self._all_built = True
        return built

    def barrier(self) -> "Circuit":
        """Prevent later appends from sliding into existing moments."""
        self._barrier_floor = len(self._ops)
        if (
            self._barrier_floor > 0
            and self._barrier_floor not in self._barrier_history
        ):
            self._barrier_history.append(self._barrier_floor)
        return self

    @property
    def barrier_floors(self) -> tuple[int, ...]:
        """Moment indices at which :meth:`barrier` fixed a floor."""
        return tuple(self._barrier_history)

    def _replay_onto(
        self,
        target: "Circuit",
        transform: "Callable[[GateOperation], OpTree] | None" = None,
    ) -> None:
        """ASAP-append this circuit's operations onto ``target``, re-issuing
        barrier floors so no operation slides past a barrier it respected
        here.  ``transform`` optionally maps each operation to replacement
        operations (the compile passes' hook)."""
        floors = iter(self._barrier_history)
        next_floor = next(floors, None)
        for index, ops in enumerate(self._ops):
            while next_floor is not None and next_floor <= index:
                target.barrier()
                next_floor = next(floors, None)
            if transform is None:
                target.append(ops)
            else:
                target.append([transform(op) for op in ops])
        while next_floor is not None:
            target.barrier()
            next_floor = next(floors, None)
        if self._barrier_floor >= len(self._ops):
            target.barrier()

    def transformed(
        self, transform: "Callable[[GateOperation], OpTree]"
    ) -> "Circuit":
        """Map ``transform`` over every operation, rescheduling ASAP with
        this circuit's barrier floors replayed in place."""
        result = Circuit()
        self._replay_onto(result, transform)
        return result

    def __add__(self, other: "Circuit") -> "Circuit":
        if not isinstance(other, Circuit):
            return NotImplemented
        joined = Circuit()
        self._replay_onto(joined)
        other._replay_onto(joined)
        return joined

    def rescheduled(self, preserve_barriers: bool = True) -> "Circuit":
        """Re-run ASAP scheduling over the circuit's operations.

        With ``preserve_barriers`` (default) barrier floors are replayed, so
        operations merge into earlier moments only up to the nearest barrier;
        without it the circuit is packed as tightly as the gate DAG allows.
        """
        packed = Circuit()
        if preserve_barriers:
            self._replay_onto(packed)
        else:
            packed.append(self._ops)
        return packed

    def _segment_bounds(self) -> list[int]:
        """Moment indices bounding the barrier segments: ``[0, f1, .., end]``."""
        end = len(self._ops)
        interior = [f for f in self._barrier_history if 0 < f < end]
        return [0, *interior, end]

    def barrier_segments(self) -> list[tuple[Moment, ...]]:
        """The circuit's moments partitioned at barrier floors.

        Rewrites (the optimizer's passes, most prominently) must never
        move an operation across a barrier, so they operate segment by
        segment: each returned span may be reordered or rewritten
        internally, and :meth:`with_replaced_moments` reassembles the
        circuit with every floor replayed in place.  A circuit with no
        interior barriers is a single segment (possibly empty).
        """
        moments = self._moment_list()
        bounds = self._segment_bounds()
        return [
            tuple(moments[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]

    def with_replaced_moments(
        self,
        segments: "Sequence[OpTree | Moment | Sequence[Moment]]",
        preserve_floors: bool = True,
    ) -> "Circuit":
        """Rebuild the circuit from per-segment replacement content.

        ``segments`` provides one entry per :meth:`barrier_segments`
        span, in order.  An entry of :class:`Moment` objects is restored
        verbatim (one moment each, no rescheduling); any other op-tree is
        ASAP-appended, letting replacements pack tighter than the span
        they replace.  With ``preserve_floors`` (the default) a barrier
        is re-issued between consecutive segments — exactly the floors
        :meth:`_replay_onto` replays for ``route_circuit`` and
        ``Circuit.__add__`` — so no rewrite can silently drop a barrier;
        without it the segments merge as the gate DAG allows.
        """
        replacements = [
            [entry]
            if isinstance(entry, (Moment, GateOperation))
            else list(entry)
            for entry in segments
        ]
        expected = len(self._segment_bounds()) - 1
        if len(replacements) != expected:
            raise ValueError(
                f"need {expected} replacement segments (one per barrier "
                f"segment), got {len(replacements)}"
            )
        result = Circuit()
        for position, content in enumerate(replacements):
            if position and preserve_floors:
                result.barrier()
            if any(isinstance(item, Moment) for item in content):
                if not all(isinstance(item, Moment) for item in content):
                    raise ValueError(
                        "a replacement segment must be all moments or "
                        "all operations, not a mix"
                    )
                for moment in content:
                    result._push_moment(moment)
            else:
                result.append(content)
        if preserve_floors and self._barrier_floor >= len(self._ops):
            result.barrier()
        return result

    def inverse(self) -> "Circuit":
        """The inverse circuit (reversed moments of inverted gates)."""
        inv = Circuit()
        for moment in reversed(self._moment_list()):
            inv._push_moment(moment.inverse())
        return inv

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def moments(self) -> tuple[Moment, ...]:
        """The scheduled moments in time order."""
        return tuple(self._moment_list())

    def all_operations(self) -> Iterator[GateOperation]:
        """Operations in schedule order (moment by moment)."""
        return iter([op for ops in self._ops for op in ops])

    def all_qudits(self) -> list[Qudit]:
        """Wires used anywhere in the circuit, sorted by index."""
        return sorted(self._last_use)

    @property
    def depth(self) -> int:
        """Number of moments = critical-path length (the paper's depth)."""
        return len(self._ops)

    @property
    def num_operations(self) -> int:
        """Total gate count (tallied on append; O(1))."""
        return self._num_operations

    @property
    def two_qudit_gate_count(self) -> int:
        """Number of operations spanning 2+ wires (Figure 10's metric).

        Maintained incrementally on append, so sweeping resource counts
        over large-N constructions never re-walks the moment list.
        """
        return self._num_multi_qudit

    @property
    def single_qudit_gate_count(self) -> int:
        """Number of 1-wire operations (tallied on append; O(1))."""
        return self._num_operations - self._num_multi_qudit

    def max_gate_width(self) -> int:
        """Widest operation in the circuit (2 once fully decomposed)."""
        return max(
            (op.num_qudits for op in self.all_operations()), default=0
        )

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Moment]:
        return iter(self.moments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Circuit depth={self.depth} ops={self.num_operations} "
            f"wires={len(self._last_use)}>"
        )

    # ------------------------------------------------------------------
    # Structural identity and serialization
    # ------------------------------------------------------------------
    #
    # Circuits are values: two circuits are equal iff their scheduled
    # moments are structurally equal (same gates on the same wires at the
    # same time steps).  Barrier floors are construction state — they
    # constrain *future* appends, not the operations already scheduled —
    # so they are serialized for faithful round-trips but excluded from
    # equality and hashing.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self._moment_list() == other._moment_list()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Note: circuits are mutable builders; hash only settled circuits
        # (e.g. cache keys computed after construction finishes).
        return hash(self.moments)

    def build_digest(self) -> str:
        """A SHA-256 digest of the circuit exactly as it was built.

        Covers every moment's operations in append order (each as its
        cached ``GateOperation.fingerprint_cell()``), the barrier history
        and the barrier floor.  ``circuit_fingerprint`` sorts operations
        within a moment and ignores barriers, matching ``__eq__``; both
        still change what a compile pass produces (operation order steers
        the router and the optimizer, barriers bound their rewrites), so
        compiled-circuit caches key on this digest instead.
        """
        cells = "|".join(
            ";".join([op.fingerprint_cell() for op in ops])
            for ops in self._ops
        )
        barriers = f"#{self._barrier_history}@{self._barrier_floor}"
        return hashlib.sha256((cells + barriers).encode()).hexdigest()

    def to_dict(self) -> dict:
        """Plain-data form of the circuit (moments, barriers, version)."""
        return {
            "version": SERIALIZATION_VERSION,
            "moments": [moment.to_dict() for moment in self._moment_list()],
            "barriers": list(self._barrier_history),
            "barrier_floor": self._barrier_floor,
        }

    @classmethod
    def from_dict(
        cls, data: Mapping, registry: GateRegistry | None = None
    ) -> "Circuit":
        """Rebuild a circuit from :meth:`to_dict` data.

        Moments are restored verbatim (no rescheduling), so
        ``Circuit.from_dict(c.to_dict()) == c`` for every circuit; the
        barrier state is restored too, so continued building behaves
        like it would on the original.  Malformed data — bad gate or
        wire entries, moments whose operations share a wire, or barrier
        state :meth:`barrier` could not have produced — raises
        :class:`SerializationError`.
        """
        version = data.get("version")
        if version != SERIALIZATION_VERSION:
            raise SerializationError(
                f"unsupported circuit format version {version!r} "
                f"(this library reads version {SERIALIZATION_VERSION})"
            )
        try:
            moments = [
                Moment.from_dict(moment_data, registry)
                for moment_data in data["moments"]
            ]
            history = [_floor(value) for value in data.get("barriers", [])]
            floor = _floor(data.get("barrier_floor", 0))
        except (KeyError, ValueError, TypeError, ReproError) as error:
            raise SerializationError(
                f"malformed circuit data: {error}"
            ) from error
        depth = len(moments)
        bounds = [0, *history, depth + 1]
        if any(high <= low for low, high in zip(bounds, bounds[1:])):
            raise SerializationError(
                f"malformed circuit data: barriers {history} must be "
                f"strictly increasing within [1, {depth}]"
            )
        if not 0 <= floor <= depth:
            raise SerializationError(
                f"malformed circuit data: barrier_floor {floor} must lie "
                f"within [0, {depth}]"
            )
        circuit = cls()
        for moment in moments:
            circuit._push_moment(moment)
        circuit._barrier_history = history
        circuit._barrier_floor = floor
        return circuit

    def to_json(self, *, indent: int | None = None) -> str:
        """JSON text of :meth:`to_dict` (sorted keys; compact by default)."""
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            indent=indent,
            separators=(",", ":") if indent is None else None,
        )

    @classmethod
    def from_json(
        cls, text: str, registry: GateRegistry | None = None
    ) -> "Circuit":
        """Rebuild a circuit from :meth:`to_json` text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"invalid circuit JSON: {error}"
            ) from error
        if not isinstance(data, dict):
            raise SerializationError(
                f"circuit JSON must be an object, got "
                f"{type(data).__name__}"
            )
        return cls.from_dict(data, registry)

    # ------------------------------------------------------------------
    # Dense semantics (small circuits only; tests and verification)
    # ------------------------------------------------------------------

    def unitary(self, wire_order: Sequence[Qudit] | None = None) -> np.ndarray:
        """Dense unitary of the whole circuit.

        Exponential in width — use only for verification of small circuits.
        The simulator modules apply circuits to state vectors instead
        (Sec. 6.2: never build the d^N x d^N operator).
        """
        wires = list(wire_order) if wire_order else self.all_qudits()
        missing = set(self.all_qudits()) - set(wires)
        if missing:
            raise SimulationError(f"wire_order missing wires {missing}")
        total = total_dimension(wires)
        if total > 1 << 14:
            raise SimulationError(
                f"refusing to build a {total}x{total} dense unitary"
            )
        from ..sim.state import StateVector

        columns = []
        dims = [w.dimension for w in wires]
        for index in range(total):
            state = StateVector.computational_basis(
                wires, index_to_values(index, dims)
            )
            for op in self.all_operations():
                state.apply_operation(op)
            columns.append(state.vector)
        return np.stack(columns, axis=1)

    def classical_map(
        self, assignment: Mapping[Qudit, int]
    ) -> dict[Qudit, int]:
        """Push a basis-state assignment through the circuit.

        Linear in circuit size and width — the paper's fast verification
        path.  All gates must be classical permutations.
        """
        values = dict(assignment)
        for op in self.all_operations():
            for wire in op.qudits:
                if wire not in values:
                    raise SchedulingError(
                        f"no input value provided for wire {wire}"
                    )
            values.update(op.classical_action(values))
        return values
