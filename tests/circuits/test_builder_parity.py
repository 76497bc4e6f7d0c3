"""The list-backed ``Circuit`` builder against the eager-moment builder.

``Circuit.append`` keeps each moment's operations in a plain list and
builds the immutable :class:`Moment` only when the moment is read.
:class:`EagerCircuit` is the builder it replaced, kept as the oracle: it
re-creates a moment with ``Moment.with_operation`` on every append.
Both must give the same moments, in-moment operation order, barrier
state, gate counts and fingerprints through every composition path.
"""

from __future__ import annotations

import itertools
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, Moment
from repro.execution.cache import circuit_fingerprint
from repro.gates import CNOT, ControlledGate, H, T, X
from repro.gates.qutrit import X01, X_PLUS_1
from repro.qudits import qubits, qutrits
from tests.execution.test_fingerprint_parity import reference_fingerprint


class EagerCircuit:
    """The eager builder: every append rebuilds its moment."""

    def __init__(self, operations=()) -> None:
        self.moments: list[Moment] = []
        self.last_use: dict = {}
        self.floor = 0
        self.history: list[int] = []
        self.num_operations = 0
        self.num_multi_qudit = 0
        self.append(operations)

    def append(self, operations):
        for op in _flatten(operations):
            earliest = -1
            for wire in op.qudits:
                earliest = max(earliest, self.last_use.get(wire, -1))
            index = max(earliest + 1, self.floor)
            while index >= len(self.moments):
                self.moments.append(Moment())
            self.moments[index] = self.moments[index].with_operation(op)
            for wire in op.qudits:
                self.last_use[wire] = index
            self._count(op)
        return self

    def append_moment(self, operations):
        ops = list(_flatten(operations))
        moment = Moment(ops)
        self.moments.append(moment)
        for wire in moment.qudits:
            self.last_use[wire] = len(self.moments) - 1
        for op in ops:
            self._count(op)
        return self

    def _count(self, op) -> None:
        self.num_operations += 1
        if op.is_multi_qudit:
            self.num_multi_qudit += 1

    def barrier(self):
        self.floor = len(self.moments)
        if self.floor > 0 and self.floor not in self.history:
            self.history.append(self.floor)
        return self

    def replay_onto(self, target, transform=None) -> None:
        floors = iter(self.history)
        next_floor = next(floors, None)
        for index, moment in enumerate(self.moments):
            while next_floor is not None and next_floor <= index:
                target.barrier()
                next_floor = next(floors, None)
            if transform is None:
                target.append(moment.operations)
            else:
                for op in moment:
                    target.append(transform(op))
        while next_floor is not None:
            target.barrier()
            next_floor = next(floors, None)
        if self.floor >= len(self.moments):
            target.barrier()

    def transformed(self, transform) -> "EagerCircuit":
        result = EagerCircuit()
        self.replay_onto(result, transform)
        return result

    def __add__(self, other) -> "EagerCircuit":
        joined = EagerCircuit()
        self.replay_onto(joined)
        other.replay_onto(joined)
        return joined

    def rescheduled(self, preserve_barriers=True) -> "EagerCircuit":
        packed = EagerCircuit()
        if preserve_barriers:
            self.replay_onto(packed)
        else:
            packed.append([op for m in self.moments for op in m])
        return packed

    def barrier_segments(self) -> list[tuple[Moment, ...]]:
        end = len(self.moments)
        bounds = [0, *[f for f in self.history if 0 < f < end], end]
        return [
            tuple(self.moments[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]

    def with_replaced_moments(self, segments, preserve_floors=True):
        result = EagerCircuit()
        for position, content in enumerate(segments):
            if position and preserve_floors:
                result.barrier()
            content = list(content)
            if content and isinstance(content[0], Moment):
                for moment in content:
                    result.append_moment(moment.operations)
            else:
                result.append(content)
        if preserve_floors and self.floor >= len(self.moments):
            result.barrier()
        return result

    def round_trip(self) -> "EagerCircuit":
        """What restoring ``to_dict`` data does: moments verbatim."""
        restored = EagerCircuit()
        for moment in self.moments:
            restored.append_moment(moment.operations)
        restored.history = list(self.history)
        restored.floor = self.floor
        return restored

    def to_dict(self) -> dict:
        return {
            "version": 2,
            "moments": [moment.to_dict() for moment in self.moments],
            "barriers": list(self.history),
            "barrier_floor": self.floor,
        }


def _flatten(tree):
    if isinstance(tree, (list, tuple)):
        for item in tree:
            yield from _flatten(item)
    else:
        yield tree


# -- random mixed-dimension op streams --------------------------------------

QUBITS = qubits(3)
QUTRITS = qutrits(3, start=3)
GATES = [
    X, H, T, X_PLUS_1, X01, CNOT,
    ControlledGate(X_PLUS_1, (3,), (2,)),
    ControlledGate(X_PLUS_1, (2,), (1,)),
    ControlledGate(X, (3,), (2,)),
    ControlledGate(X_PLUS_1, (2, 2)),
]
#: Every placement of every gate on wires of matching dimension.
OPS = [
    gate.on(*wires)
    for gate in GATES
    for wires in itertools.permutations(QUBITS + QUTRITS, gate.num_qudits)
    if tuple(w.dimension for w in wires) == gate.dims
]

op_lists = st.lists(st.sampled_from(OPS), max_size=8)


def _disjoint(ops):
    """The longest prefix-greedy wire-disjoint subset of ``ops``."""
    used, kept = set(), []
    for op in ops:
        if used.isdisjoint(op.qudits):
            kept.append(op)
            used.update(op.qudits)
    return kept


def _double_single_qudit(op):
    return [op, op] if op.num_qudits == 1 else op


actions = st.one_of(
    st.tuples(st.just("append"), op_lists),
    st.tuples(st.just("append_one"), st.sampled_from(OPS)),
    st.tuples(st.just("append_nested"), op_lists),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("append_moment"), op_lists),
    st.tuples(st.just("add"), op_lists, st.booleans(), st.booleans()),
    st.tuples(st.just("transformed")),
    st.tuples(st.just("rescheduled"), st.booleans()),
    st.tuples(
        st.just("replace"),
        st.sampled_from(["moments", "ops", "reversed"]),
        st.booleans(),
    ),
    st.tuples(st.just("round_trip")),
    st.tuples(st.just("read")),
)


def _pair(ops, barrier_after_first):
    """A (Circuit, EagerCircuit) pair built from ``ops``."""
    circuit, eager = Circuit(), EagerCircuit()
    for position, op in enumerate(ops):
        circuit.append(op)
        eager.append(op)
        if position == 0 and barrier_after_first:
            circuit.barrier()
            eager.barrier()
    return circuit, eager


def _apply(action, circuit: Circuit, eager: EagerCircuit):
    kind = action[0]
    if kind in ("append", "append_one"):
        circuit.append(action[1])
        eager.append(action[1])
    elif kind == "append_nested":
        nested = [action[1][:1], (action[1][1:3], [action[1][3:]])]
        circuit.append(nested)
        eager.append(nested)
    elif kind == "barrier":
        circuit.barrier()
        eager.barrier()
    elif kind == "append_moment":
        ops = _disjoint(action[1])
        circuit.append_moment(ops)
        eager.append_moment(ops)
    elif kind == "add":
        other, other_eager = _pair(action[1], action[2])
        if action[3]:
            return circuit + other, eager + other_eager
        return other + circuit, other_eager + eager
    elif kind == "transformed":
        return (
            circuit.transformed(_double_single_qudit),
            eager.transformed(_double_single_qudit),
        )
    elif kind == "rescheduled":
        return circuit.rescheduled(action[1]), eager.rescheduled(action[1])
    elif kind == "replace":
        mode, preserve = action[1], action[2]
        pairs = zip(circuit.barrier_segments(), eager.barrier_segments())
        new, new_eager = [], []
        for segment, eager_segment in pairs:
            assert segment == eager_segment
            if mode == "moments":
                new.append(segment)
                new_eager.append(eager_segment)
            else:
                ops = [op for moment in segment for op in moment]
                if mode == "reversed":
                    ops.reverse()
                new.append(ops)
                new_eager.append(list(ops))
        return (
            circuit.with_replaced_moments(new, preserve_floors=preserve),
            eager.with_replaced_moments(
                new_eager, preserve_floors=preserve
            ),
        )
    elif kind == "round_trip":
        return Circuit.from_json(circuit.to_json()), eager.round_trip()
    elif kind == "read":
        circuit.moments
    return circuit, eager


def assert_same(circuit: Circuit, eager: EagerCircuit) -> None:
    assert [m.operations for m in circuit.moments] == [
        m.operations for m in eager.moments
    ]
    assert [m.qudits for m in circuit] == [m.qudits for m in eager.moments]
    assert circuit.barrier_floors == tuple(eager.history)
    assert circuit.to_dict() == eager.to_dict()
    assert circuit.depth == len(circuit) == len(eager.moments)
    assert circuit.num_operations == eager.num_operations
    assert circuit.two_qudit_gate_count == eager.num_multi_qudit
    assert list(circuit.all_operations()) == [
        op for moment in eager.moments for op in moment
    ]
    assert circuit_fingerprint(circuit) == reference_fingerprint(
        eager.moments
    )


@given(st.lists(actions, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_builder_matches_eager_reference(steps):
    circuit, eager = Circuit(), EagerCircuit()
    for action in steps:
        circuit, eager = _apply(action, circuit, eager)
        assert_same(circuit, eager)
    # Continued building after the stream schedules identically too.
    circuit.append(OPS[:5])
    eager.append(OPS[:5])
    assert_same(circuit, eager)


# -- moments are built once per change, on read -------------------------------


class _MomentBuilds:
    """Counts every Moment construction (checked or unchecked)."""

    def __init__(self, monkeypatch) -> None:
        self.count = 0
        init, disjoint = Moment.__init__, Moment._disjoint.__func__

        def counted_init(moment, *args, **kwargs):
            self.count += 1
            init(moment, *args, **kwargs)

        def counted_disjoint(cls, operations):
            self.count += 1
            return disjoint(cls, operations)

        monkeypatch.setattr(Moment, "__init__", counted_init)
        monkeypatch.setattr(Moment, "_disjoint", classmethod(counted_disjoint))


class TestMomentsBuiltOnRead:
    def test_appends_build_no_moment(self, monkeypatch):
        builds = _MomentBuilds(monkeypatch)
        a, b = qubits(2)
        circuit = Circuit([H.on(a), CNOT.on(a, b), X.on(b), H.on(a)])
        assert builds.count == 0
        assert circuit.depth == 3
        assert circuit.num_operations == 4
        assert len(list(circuit.all_operations())) == 4
        assert builds.count == 0

    def test_k_appends_into_one_moment_build_one_moment(self, monkeypatch):
        builds = _MomentBuilds(monkeypatch)
        wires = qutrits(6)
        circuit = Circuit()
        for wire in wires:
            circuit.append(X_PLUS_1.on(wire))
        assert circuit.depth == 1
        (moment,) = circuit.moments
        assert builds.count == 1
        assert moment.operations == tuple(X_PLUS_1.on(w) for w in wires)

    def test_second_read_builds_nothing(self, monkeypatch):
        builds = _MomentBuilds(monkeypatch)
        a, b, c = qubits(3)
        circuit = Circuit([H.on(a), CNOT.on(a, b), CNOT.on(b, c)])
        first = circuit.moments
        assert builds.count == 3
        second = circuit.moments
        list(circuit)
        circuit.barrier_segments()
        assert builds.count == 3
        assert all(x is y for x, y in zip(first, second))

    def test_only_changed_moments_rebuild(self, monkeypatch):
        builds = _MomentBuilds(monkeypatch)
        a, b, c = qubits(3)
        circuit = Circuit([CNOT.on(a, b), H.on(a)])
        before = circuit.moments
        circuit.append(X.on(c))  # joins moment 0
        after = circuit.moments
        assert builds.count == 3
        assert after[1] is before[1]
        assert after[0] is not before[0]

    def test_read_moment_unchanged_by_later_appends(self):
        a, b, c = qubits(3)
        circuit = Circuit([H.on(a)])
        (moment,) = circuit.moments
        circuit.append([X.on(b), X.on(c), CNOT.on(b, c)])
        assert moment.operations == (H.on(a),)
        assert moment.qudits == frozenset({a})
        assert circuit.moments[0].operations == (H.on(a), X.on(b), X.on(c))


def test_concurrent_first_reads_agree():
    # Queue threads may read one settled circuit at once: the moments
    # and fingerprint cells they fill on first read must come out the
    # same whichever thread builds them.
    ops = OPS * 3
    expected = EagerCircuit(ops)
    want = (
        [m.operations for m in expected.moments],
        reference_fingerprint(expected.moments),
    )
    threads_n = 8

    def round_of_reads():
        circuit = Circuit(op.gate.on(*op.qudits) for op in ops)
        results: list = [None] * threads_n
        start = threading.Barrier(threads_n)

        def work(slot):
            start.wait(timeout=10)
            if slot % 2:
                fingerprint = circuit_fingerprint(circuit)
                moments = [m.operations for m in circuit.moments]
            else:
                moments = [m.operations for m in circuit.moments]
                fingerprint = circuit_fingerprint(circuit)
            results[slot] = (moments, fingerprint)

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        return results

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            assert all(result == want for result in round_of_reads())
    finally:
        sys.setswitchinterval(previous)
