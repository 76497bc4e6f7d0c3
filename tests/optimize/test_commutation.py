"""Tests for the 3-tier commutation check and the insertion walk."""

import numpy as np

from repro.gates import (
    CNOT,
    TOFFOLI,
    X_PLUS_1,
    Z3,
    ControlledGate,
    H,
    S,
    T,
    X,
    Z,
)
from repro.gates.qutrit import X01, clock_gate, phase_gate
from repro.optimize import (
    clear_commutation_cache,
    commutes_into,
    operations_commute,
)
from repro.circuits.circuit import Circuit
from repro.optimize.commutation import (
    MAX_JOINT_DIM,
    _COMMUTE_CACHE,
    _dense_commute,
)
from repro.qudits import Qudit, qubits, qutrits


class TestOperationsCommute:
    def setup_method(self):
        clear_commutation_cache()

    def test_disjoint_wires_always_commute(self):
        a, b = qubits(2)
        assert operations_commute(H.on(a), T.on(b))

    def test_diagonal_gates_commute_on_shared_wires(self):
        a, = qutrits(1)
        assert operations_commute(
            phase_gate(3, 1, 0.3).on(a), clock_gate(3).on(a)
        )

    def test_anticommuting_paulis_do_not_commute(self):
        a, = qubits(2)[:1]
        assert not operations_commute(X.on(a), Z.on(a))

    def test_dense_check_catches_control_structure(self):
        a, b, c = qubits(3)
        # CNOTs sharing only their control commute; sharing the target
        # of one with the control of the other they do not.
        assert operations_commute(CNOT.on(a, b), CNOT.on(a, c))
        assert not operations_commute(CNOT.on(a, b), CNOT.on(b, c))

    def test_z_commutes_with_cnot_control(self):
        a, b = qubits(2)
        assert operations_commute(Z.on(a), CNOT.on(a, b))
        assert not operations_commute(Z.on(b), CNOT.on(a, b))

    def test_dense_results_are_cached_canonically(self):
        clear_commutation_cache()
        a, b = qubits(2)
        c, d = qubits(2)
        assert operations_commute(CNOT.on(a, b), CNOT.on(a, b))
        cached = len(_COMMUTE_CACHE)
        assert cached >= 1
        # Same gates on different wires with the same overlap pattern
        # hit the cache instead of re-simulating.
        assert operations_commute(CNOT.on(c, d), CNOT.on(c, d))
        assert len(_COMMUTE_CACHE) == cached

    def test_joint_dim_above_cap_is_conservative(self):
        wires = qubits(10)
        from repro.gates import MatrixGate

        dim = 2 ** 9
        assert dim * 2 > MAX_JOINT_DIM
        wide = np.kron(H.unitary(), np.eye(dim // 2))
        big = MatrixGate(wide, tuple([2] * 9), name="wide")
        other = H.on(wires[9])
        joint = big.on(*wires[:9])
        # Overlapping (adds wire 9 to the joint space via wire 8) and
        # non-diagonal, so only the capped dense tier could decide it.
        overlapping = MatrixGate(
            np.kron(H.unitary(), np.eye(2)), (2, 2), name="pair"
        ).on(wires[8], wires[9])
        assert not operations_commute(joint, overlapping)
        assert operations_commute(joint, other)  # disjoint stays exact


class TestCommutesInto:
    def test_walks_past_commuting_predecessors(self):
        a, b, c = qubits(3)
        ops = [H.on(a), T.on(b), S.on(b)]
        # X on c commutes with everything: lands at position 0.
        assert commutes_into(ops, len(ops), X.on(c)) == 0

    def test_blocked_by_non_commuting_gate(self):
        a, = qubits(1)
        ops = [H.on(a), Z.on(a)]
        # X anticommutes with both H (dense) and Z: stays at the end.
        assert commutes_into(ops, len(ops), X.on(a)) == len(ops)

    def test_partial_walk(self):
        a, b = qubits(2)
        ops = [H.on(a), Z.on(b), S.on(b)]
        # T on b commutes with diagonal Z/S but the walk stops at H?
        # No: H is on a different wire, so T walks all the way home.
        assert commutes_into(ops, len(ops), T.on(b)) == 0

    def test_stops_at_blocker_mid_list(self):
        a, b = qubits(2)
        ops = [H.on(b), H.on(a), S.on(b)]
        # T on b slides past diagonal S, then hits H on b at index 0.
        assert commutes_into(ops, len(ops), T.on(b)) == 1


def _joint_unitary(op, wires):
    """``op`` on the joint space of ``wires``, built by tensor contraction
    (independent of the simulators the memo's dense check uses)."""
    dims = [w.dimension for w in wires]
    total = int(np.prod(dims))
    k = op.num_qudits
    block = op.gate.unitary().reshape(op.gate.dims * 2)
    axes = [wires.index(w) for w in op.qudits]
    identity = np.eye(total, dtype=complex).reshape(dims * 2)
    moved = np.tensordot(block, identity, axes=(range(k, 2 * k), axes))
    return np.moveaxis(moved, range(k), axes).reshape(total, total)


def _oracle_commute(op_a, op_b):
    wires = sorted(set(op_a.qudits) | set(op_b.qudits))
    u_a, u_b = _joint_unitary(op_a, wires), _joint_unitary(op_b, wires)
    return bool(np.allclose(u_a @ u_b, u_b @ u_a, atol=1e-9))


#: Catalog gates over qubits, qutrits and both (control on one
#: dimension, target on the other).
_CATALOG = {
    "H": H,
    "T": T,
    "CNOT": CNOT,
    "TOFFOLI": TOFFOLI,
    "X+1": X_PLUS_1,
    "Z3": Z3,
    "C3X+1": ControlledGate(X_PLUS_1, (3,), (1,)),
    "C2X+1": ControlledGate(X_PLUS_1, (2,), (1,)),
    "C3X": ControlledGate(X, (3,), (2,)),
}


def _overlap_patterns(dims_a, dims_b):
    """Every way ``b``'s wires can sit on ``a``'s (slot) or on fresh
    wires (-1), sharing a wire only where the dimensions agree."""
    patterns = [()]
    for dim in dims_b:
        patterns = [
            pattern + (slot,)
            for pattern in patterns
            for slot in (-1, *range(len(dims_a)))
            if slot < 0 or (slot not in pattern and dims_a[slot] == dim)
        ]
    return patterns


def _place(gate_a, gate_b, pattern, reverse):
    """Bind the pair on concrete wires.  ``reverse`` numbers the wires
    from the other end, so the sorted wire order differs from the
    forward layout while the overlap pattern stays the same."""
    count = gate_a.num_qudits + sum(1 for slot in pattern if slot < 0)
    index = (lambda k: 40 - k) if reverse else (lambda k: k)
    a_wires = [Qudit(index(k), d) for k, d in enumerate(gate_a.dims)]
    b_wires, fresh = [], gate_a.num_qudits
    for slot, dim in zip(pattern, gate_b.dims):
        if slot < 0:
            b_wires.append(Qudit(index(fresh), dim))
            fresh += 1
        else:
            b_wires.append(a_wires[slot])
    assert fresh == count
    return gate_a.on(*a_wires), gate_b.on(*b_wires)


class TestInternedMemoParity:
    """The (spec id, spec id, overlap pattern) memo answers exactly what
    a fresh dense check would, for every layout sharing the key."""

    def test_memo_agrees_with_fresh_dense_checks(self):
        checked = dense = mixed = 0
        for name_a, gate_a in _CATALOG.items():
            for name_b, gate_b in _CATALOG.items():
                for pattern in _overlap_patterns(gate_a.dims, gate_b.dims):
                    forward = _place(gate_a, gate_b, pattern, False)
                    backward = _place(gate_a, gate_b, pattern, True)
                    expected = _oracle_commute(*forward)
                    assert _oracle_commute(*backward) == expected
                    case = (name_a, name_b, pattern)
                    # Warm memo (filled by earlier cases), then cleared.
                    assert operations_commute(*forward) == expected, case
                    clear_commutation_cache()
                    assert operations_commute(*backward) == expected, case
                    cached = len(_COMMUTE_CACHE)
                    dense += cached
                    if cached and set(gate_a.dims) != set(gate_b.dims):
                        mixed += 1
                    # The reversed layout's entry serves the forward one.
                    assert operations_commute(*forward) == expected, case
                    assert len(_COMMUTE_CACHE) == cached, case
                    checked += 1
        # Most cases, mixed-dimension pairs among them, reached the
        # dense tier.
        assert checked > 200 and dense > 120 and mixed > 40

    def test_mixed_dimension_wires_are_distinct(self):
        # Same index, different dimension: different wires, so the pair
        # is disjoint and commutes without a dense check.
        clear_commutation_cache()
        qubit, qutrit = Qudit(0, 2), Qudit(0, 3)
        assert operations_commute(H.on(qubit), X_PLUS_1.on(qutrit))
        assert len(_COMMUTE_CACHE) == 0

    def test_pickled_operation_drops_its_interned_key(self):
        import pickle

        a, b = qubits(2)
        op = CNOT.on(a, b)
        assert operations_commute(op, H.on(b)) is False
        clone = pickle.loads(pickle.dumps(op))
        assert clone == op and clone._interned is None


def _unitary_dense_commute(op_a, op_b, pattern):
    """The dense check as it was before it contracted kernel blocks:
    both orders built as circuits and simulated basis state by basis
    state through ``Circuit.unitary``."""
    canon = [Qudit(k, dim) for k, dim in enumerate(op_a.gate.dims)]
    on_b = []
    for slot, dim in zip(pattern, op_b.gate.dims):
        if slot < 0:
            slot = len(canon)
            canon.append(Qudit(slot, dim))
        on_b.append(canon[slot])
    joint = int(np.prod([wire.dimension for wire in canon]))
    if joint > MAX_JOINT_DIM:
        return False
    a = op_a.gate.on(*canon[: op_a.num_qudits])
    b = op_b.gate.on(*on_b)
    u_ab = Circuit([a, b]).unitary(wire_order=canon)
    u_ba = Circuit([b, a]).unitary(wire_order=canon)
    return bool(np.allclose(u_ab, u_ba, atol=1e-9))


class TestContractedDenseCheck:
    """The block-contraction dense check gives the verdict the
    ``Circuit.unitary`` simulation gave, on every catalog pair and
    overlap pattern, and never simulates a circuit."""

    def test_agrees_with_the_simulated_check(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("dense check simulated a circuit")

        checked = commuting = 0
        for name_a, gate_a in _CATALOG.items():
            for name_b, gate_b in _CATALOG.items():
                for pattern in _overlap_patterns(gate_a.dims, gate_b.dims):
                    op_a, op_b = _place(gate_a, gate_b, pattern, False)
                    expected = _unitary_dense_commute(op_a, op_b, pattern)
                    with monkeypatch.context() as patch:
                        patch.setattr(Circuit, "unitary", no_simulation)
                        verdict = _dense_commute(op_a, op_b, pattern)
                    assert verdict == expected, (name_a, name_b, pattern)
                    checked += 1
                    commuting += verdict
        assert checked > 200 and 0 < commuting < checked

    def test_joint_dim_cap_is_unchanged(self):
        from repro.gates import MatrixGate

        # Z on the first wire commutes with a CNOT controlled there; a
        # joint space of exactly MAX_JOINT_DIM is still decided, one
        # wire more is the conservative "no".
        for width, expected in ((7, True), (8, False)):
            wide = MatrixGate(
                np.kron(Z.unitary(), np.eye(2 ** (width - 1))),
                (2,) * width, name=f"z{width}",
            )
            wires = qubits(width + 1)
            op_a = wide.on(*wires[:width])
            op_b = CNOT.on(wires[0], wires[width])
            pattern = (0, -1)
            assert 2 ** (width + 1) == MAX_JOINT_DIM * (1 + (not expected))
            assert _unitary_dense_commute(op_a, op_b, pattern) is expected
            assert _dense_commute(op_a, op_b, pattern) is expected


class _SlowKey:
    """A key whose hash runs Python code, so threads can switch while
    an intern-table insert is in flight."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        spin = 0
        for _ in range(20):
            spin += 1
        return hash(self.value) + spin - spin

    def __eq__(self, other):
        return self.value == other.value


def test_concurrent_interning_gives_each_key_one_id():
    # More threads than cores, switching every microsecond, each walking
    # the keys from its own offset: a lost update in the intern table
    # would give two keys one id, or one key two ids across threads.
    import sys
    import threading

    from repro.optimize.commutation import _intern

    keys = [_SlowKey(k) for k in range(400)]
    threads_n = 8

    def round_of_interning() -> list:
        table: dict = {}
        results: list = [None] * threads_n
        start = threading.Barrier(threads_n)

        def work(slot):
            order = keys[53 * slot:] + keys[:53 * slot]
            start.wait(timeout=10)
            results[slot] = {key.value: _intern(table, key) for key in order}

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
        for _ in range(20):
            results = round_of_interning()
            assert all(result == results[0] for result in results)
            assert sorted(results[0].values()) == list(range(len(keys)))
    finally:
        sys.setswitchinterval(previous)


def test_concurrent_op_interning_shares_one_key_per_wires_and_spec():
    # Eight threads each intern their own fresh operations over the
    # same (wires, gate) pairs, switching every microsecond: each pair
    # must end with one shared key, and distinct pairs with distinct
    # ids (the pair memo's key).
    import sys
    import threading

    from repro.optimize.commutation import interned

    wires = [Qudit(900 + k, 2) for k in range(12)]  # wires no test uses
    pairs = [(gate, wire) for gate in (H, S, T, X, Z) for wire in wires]
    threads_n = 8
    results: list = [None] * threads_n
    start = threading.Barrier(threads_n)

    def work(slot):
        order = pairs[7 * slot:] + pairs[:7 * slot]
        start.wait(timeout=10)
        results[slot] = {
            (gate.name, wire): interned(gate.on(wire))
            for gate, wire in order
        }

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    first = results[0]
    for result in results[1:]:
        assert all(result[pair] is first[pair] for pair in first)
    assert len({key.id for key in first.values()}) == len(pairs)
