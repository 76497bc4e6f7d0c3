"""Pairwise operation commutation, cached on structural identity.

Every optimizer pass that moves an operation left — cancellation and
fusion hunting for a non-adjacent partner, packing hunting for an
earlier moment — needs one primitive: *may these two operations swap
order without changing the circuit's unitary?*  Three tiers decide it:

1. disjoint wires always commute;
2. two diagonal gates always commute (they share the computational
   eigenbasis — the phase-gadget observation of arXiv:2204.13681);
3. otherwise the joint unitaries over the wire union are compared
   directly, ``U_ab == U_ba``, capped at a small joint dimension.

Each operation is interned once (:func:`interned`): its wires become
a bitmask of process-wide wire ids and its canonical gate spec a small
int id.  Tier 1 is then one AND, and the dense check is memoised on
``(spec id, spec id, overlap pattern)`` — where each of the second
operation's wires sits in the first's wire tuple — so no walk hashes a
:class:`~repro.qudits.Qudit` or :class:`~repro.gates.spec.GateSpec`,
and a circuit full of repeated T/CNOT patterns pays for each shape once.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..circuits.circuit import Circuit
from ..qudits import Qudit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits.operation import GateOperation
    from ..gates.base import Gate

#: Largest joint dimension the dense commutation check will build
#: (5 qutrit wires / 8 qubit wires).  Beyond it the answer is a
#: conservative "no" — wider overlapping pairs never arise from the
#: catalog's 1-3 wire gates anyway.
MAX_JOINT_DIM = 256

#: (spec id a, spec id b, overlap pattern) -> bool, process-wide.
_COMMUTE_CACHE: dict[tuple, bool] = {}

#: Append-only intern tables (Qudit -> wire id, canonical spec -> spec
#: id).  Ids are cached on operations, so they are never reassigned.
_WIRE_IDS: dict = {}
_SPEC_IDS: dict = {}
_INTERN_LOCK = threading.Lock()


def _intern(table: dict, key) -> int:
    found = table.get(key)
    if found is None:
        with _INTERN_LOCK:
            found = table.setdefault(key, len(table))
    return found


def spec_id(gate: "Gate") -> int:
    """The process-wide int id of ``gate``'s canonical spec."""
    return _intern(_SPEC_IDS, gate.canonical_spec())


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


def interned(op: "GateOperation") -> OpKey:
    """``op``'s :class:`OpKey`, computed on first use and cached on it."""
    key = op._interned
    if key is None:
        wires = tuple(_intern(_WIRE_IDS, wire) for wire in op.qudits)
        mask = 0
        for wire in wires:
            mask |= 1 << wire
        key = OpKey(mask, wires, spec_id(op.gate), op.gate.is_diagonal)
        op._interned = key
    return key


def clear_commutation_cache() -> None:
    """Drop the memoised dense-check results (tests use this)."""
    _COMMUTE_CACHE.clear()


def _dense_commute(
    op_a: "GateOperation", op_b: "GateOperation", pattern: tuple
) -> bool:
    """``U_ab == U_ba`` on fresh wires laid out as ``op_a``'s wires,
    then ``op_b``'s unshared ones (so the cache never pins the caller's
    Qudit objects)."""
    canon = [Qudit(k, dim) for k, dim in enumerate(op_a.gate.dims)]
    on_b = []
    for slot, dim in zip(pattern, op_b.gate.dims):
        if slot < 0:
            slot = len(canon)
            canon.append(Qudit(slot, dim))
        on_b.append(canon[slot])
    joint = 1
    for wire in canon:
        joint *= wire.dimension
    if joint > MAX_JOINT_DIM:
        return False
    a = op_a.gate.on(*canon[: op_a.num_qudits])
    b = op_b.gate.on(*on_b)
    u_ab = Circuit([a, b]).unitary(wire_order=canon)
    u_ba = Circuit([b, a]).unitary(wire_order=canon)
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
    wires_a = key_a.wires
    pattern = tuple(
        wires_a.index(wire) if wire in wires_a else -1
        for wire in key_b.wires
    )
    memo = (key_a.spec, key_b.spec, pattern)
    cached = _COMMUTE_CACHE.get(memo)
    if cached is None:
        cached = _dense_commute(op_a, op_b, pattern)
        _COMMUTE_CACHE[memo] = cached
    return cached


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
