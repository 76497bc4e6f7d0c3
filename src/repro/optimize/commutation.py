"""Pairwise operation commutation, cached on structural identity.

Every optimizer pass that moves an operation left — cancellation and
fusion hunting for a non-adjacent partner, packing hunting for an
earlier moment — needs one primitive: *may these two operations swap
order without changing the circuit's unitary?*  Three tiers decide it:

1. disjoint wires always commute;
2. two diagonal gates always commute (they share the computational
   eigenbasis — the phase-gadget observation of arXiv:2204.13681);
3. otherwise the joint unitaries over the wire union are compared
   directly, ``U_ab == U_ba``, capped at a small joint dimension; both
   products are contracted from the two gate blocks onto the joint
   identity, never simulated basis state by basis state.

Each operation is interned once (:func:`interned`): its wires become
a bitmask of process-wide wire ids, its gate contributes its canonical
spec id (:func:`repro.gates.intern.spec_id`, cached on the gate), and
the pair (wire ids, spec id) gets one process-wide int id of its own.
Tier 1 is then one AND.  Tier 3 answers from a memo keyed on the two
operations' ids; only on a miss does it build the structural key
``(spec id, spec id, overlap pattern)`` — where each of the second
operation's wires sits in the first's wire tuple — and look that up,
running the dense check only on a second miss.  The pattern depends
only on the two wire tuples, so the id pair fixes the structural key
and both memos agree.  No walk hashes a :class:`~repro.qudits.Qudit` or
:class:`~repro.gates.spec.GateSpec`, and a circuit full of repeated
T/CNOT patterns pays for each shape once.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..gates.intern import spec_id
from ..sim.kernels import apply_block, gate_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits.operation import GateOperation

#: Largest joint dimension the dense commutation check will build
#: (5 qutrit wires / 8 qubit wires).  Beyond it the answer is a
#: conservative "no" — wider overlapping pairs never arise from the
#: catalog's 1-3 wire gates anyway.
MAX_JOINT_DIM = 256

#: (spec id a, spec id b, overlap pattern) -> bool, process-wide.
_COMMUTE_CACHE: dict[tuple, bool] = {}

#: (op key id a, op key id b) -> bool, process-wide: the tier-3 answer
#: for a pair already decided, without rebuilding its overlap pattern.
_PAIR_CACHE: dict[tuple[int, int], bool] = {}

#: Append-only intern tables (Qudit -> wire id; (wire ids, spec id) ->
#: its shared OpKey).  Keys are cached on operations, so ids are never
#: reassigned.
_WIRE_IDS: dict = {}
_OP_KEYS: dict[tuple[tuple[int, ...], int], "OpKey"] = {}
_INTERN_LOCK = threading.Lock()


def _intern(table: dict, key) -> int:
    found = table.get(key)
    if found is None:
        with _INTERN_LOCK:
            found = table.setdefault(key, len(table))
    return found


class OpKey(NamedTuple):
    """An operation's interned identity (process-local ints)."""

    #: OR of ``1 << wire id`` over the operation's wires.
    mask: int
    #: Wire ids in gate order.
    wires: tuple[int, ...]
    #: Canonical spec id of the gate.
    spec: int
    #: Whether the gate is diagonal.
    diagonal: bool
    #: One int per interned (wire ids, spec id): the pair memo's key.
    id: int


def interned(op: "GateOperation") -> OpKey:
    """``op``'s :class:`OpKey`, computed on first use and cached on it.

    Operations with the same wires and gate spec share one key.
    """
    key = op._interned
    if key is None:
        wires = tuple(_intern(_WIRE_IDS, wire) for wire in op.qudits)
        spec = spec_id(op.gate)
        key = _OP_KEYS.get((wires, spec))
        if key is None:
            mask = 0
            for wire in wires:
                mask |= 1 << wire
            with _INTERN_LOCK:
                key = _OP_KEYS.setdefault(
                    (wires, spec),
                    OpKey(mask, wires, spec, op.gate.is_diagonal,
                          len(_OP_KEYS)),
                )
        op._interned = key
    return key


def clear_commutation_cache() -> None:
    """Drop the memoised dense-check results and the pair memo (tests
    use this)."""
    _COMMUTE_CACHE.clear()
    _PAIR_CACHE.clear()


def _dense_commute(
    op_a: "GateOperation", op_b: "GateOperation", pattern: tuple
) -> bool:
    """``U_ab == U_ba`` on joint wires laid out as ``op_a``'s wires,
    then ``op_b``'s unshared ones.

    Both products come from applying the two gates' kernel blocks to
    the joint identity operator in either order — four small
    contractions, with nothing pinned to the caller's wires.
    """
    dims = list(op_a.gate.dims)
    axes_b = []
    for slot, dim in zip(pattern, op_b.gate.dims):
        if slot < 0:
            slot = len(dims)
            dims.append(dim)
        axes_b.append(slot)
    joint = 1
    for dim in dims:
        joint *= dim
    if joint > MAX_JOINT_DIM:
        return False
    axes_a = range(op_a.num_qudits)
    block_a, block_b = gate_kernel(op_a).block, gate_kernel(op_b).block
    identity = np.eye(joint, dtype=complex).reshape(tuple(dims) * 2)
    u_ab = apply_block(apply_block(identity, block_a, axes_a), block_b, axes_b)
    u_ba = apply_block(apply_block(identity, block_b, axes_b), block_a, axes_a)
    return bool(np.allclose(u_ab, u_ba, atol=1e-9))


def keys_commute(
    op_a: "GateOperation",
    key_a: OpKey,
    op_b: "GateOperation",
    key_b: OpKey,
) -> bool:
    """:func:`operations_commute` for operations already interned."""
    if not key_a.mask & key_b.mask:
        return True
    if key_a.diagonal and key_b.diagonal:
        return True
    pair = (key_a.id, key_b.id)
    answer = _PAIR_CACHE.get(pair)
    if answer is None:
        wires_a = key_a.wires
        pattern = tuple(
            wires_a.index(wire) if wire in wires_a else -1
            for wire in key_b.wires
        )
        memo = (key_a.spec, key_b.spec, pattern)
        answer = _COMMUTE_CACHE.get(memo)
        if answer is None:
            answer = _dense_commute(op_a, op_b, pattern)
            _COMMUTE_CACHE[memo] = answer
        _PAIR_CACHE[pair] = answer
    return answer


def operations_commute(
    op_a: "GateOperation", op_b: "GateOperation"
) -> bool:
    """True iff applying ``op_a`` then ``op_b`` equals ``op_b`` then
    ``op_a`` on the joint state space."""
    return keys_commute(op_a, interned(op_a), op_b, interned(op_b))


def commutes_into(
    ops: "list[GateOperation | None]", index: int, op: "GateOperation"
) -> int:
    """How far left ``op`` may slide through ``ops[:index]``.

    Walks left from ``index`` past entries that commute with ``op``
    (``None`` entries — holes left by a cancellation — are transparent)
    and returns the smallest insertion position reachable.  This is the
    shared "commute-back walk" the cancellation, fusion and packing
    passes use to find non-adjacent partners.
    """
    position = index
    while position > 0:
        prev = ops[position - 1]
        if prev is not None and not operations_commute(prev, op):
            break
        position -= 1
    return position
