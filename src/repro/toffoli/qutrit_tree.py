"""The paper's qutrit Generalized Toffoli (Sec. 4.2, Figure 5).

The construction is a binary tree over the controls.  Leaf gates elevate a
qutrit from its activation value to |2> when its two sibling controls are
active; interior gates do the same conditioned on both child roots being
|2>.  After log N levels, the tree root is |2> iff *all* controls were
active, so a single |2>-controlled gate applies U to the target, and the
mirrored uncomputation restores every control.  No ancilla are used — the
|2> level *is* the storage.

Generalisations implemented here, both required by the incrementer
(Sec. 5.3):

* any number of controls (not just 2^k - 1);
* per-control activation values 0, 1 or 2.  Values 0 and 1 elevate with
  X02 / X+1 respectively; value-2 controls cannot be elevation hosts (a
  permutation cannot make "still |2>" mean "was |2> AND siblings active"),
  so the builder arranges them into control-only tree slots, of which at
  least a quarter of all positions (and always position 0) are available —
  ample for the incrementer's single |2>-activated carry control.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from ..circuits.circuit import Circuit
from ..circuits.operation import GateOperation
from ..exceptions import DecompositionError
from ..gates.base import Gate
from ..gates.controlled import controlled
from ..gates.decompositions import decompose_all
from ..gates.qutrit import X01, X02, X_PLUS_1, level_swap, shift_gate
from ..qudits import QUTRIT_D, Qudit, qudit_line
from .spec import ConstructionResult, GeneralizedToffoli

#: Tree node: a wire together with the value that marks it "active".
_Node = tuple[Qudit, int]


def _elevation_gate(active_value: int, dimension: int = QUTRIT_D) -> Gate:
    """The single-qudit permutation lifting ``active_value`` to |2>.

    X+1 maps 1 -> 2 (and the inactive 0 harmlessly off |2>); X02 maps
    0 -> 2 (and fixes the inactive 1).  Either way, after the gate the
    wire is |2> iff it was active *and* the gate's controls fired.  Works
    for any d >= 3: only levels {0, 1, 2} of binary-valued hosts are ever
    populated.
    """
    if active_value == 1:
        return X_PLUS_1 if dimension == QUTRIT_D else shift_gate(dimension, 1)
    if active_value == 0:
        return X02 if dimension == QUTRIT_D else level_swap(dimension, 0, 2)
    raise DecompositionError(
        "a |2>-activated control cannot be an elevation host"
    )


@lru_cache(maxsize=None)
def elevation_slots(num_controls: int) -> frozenset[int]:
    """Positions (within the control list) that the tree elevates.

    Mirrors the recursion of :func:`_conjunction_tree`; position 0 is never
    a slot, and at least a quarter of all positions stay control-only, so
    gates with a few |2>-activated controls are always constructible.
    """
    n = num_controls
    if n <= 1:
        return frozenset()
    if n == 2:
        return frozenset({1})
    k = (n - 1) // 2
    left = elevation_slots(k)
    right = elevation_slots(n - k - 1)
    return frozenset(left) | {k} | {k + 1 + i for i in right}


def _arrange(nodes: Sequence[_Node]) -> list[_Node]:
    """Order controls so no |2>-activated control lands in an elevation slot."""
    n = len(nodes)
    slots = elevation_slots(n)
    twos = [node for node in nodes if node[1] == 2]
    others = [node for node in nodes if node[1] != 2]
    if len(twos) > n - len(slots):
        raise DecompositionError(
            f"too many |2>-activated controls ({len(twos)}) for "
            f"{n - len(slots)} control-only tree positions"
        )
    arranged: list[_Node] = []
    twos_iter = iter(twos)
    others_iter = iter(others)
    remaining_twos = len(twos)
    for position in range(n):
        if position in slots:
            arranged.append(next(others_iter))
        elif remaining_twos:
            arranged.append(next(twos_iter))
            remaining_twos -= 1
        else:
            arranged.append(next(others_iter))
    return arranged


def _conjunction_tree(
    nodes: Sequence[_Node], ops: list[GateOperation]
) -> _Node:
    """Emit elevation gates; return the root (wire, active-value).

    After the emitted gates run, the root wire holds its active value iff
    every node in ``nodes`` held its own active value on entry.
    """
    nodes = list(nodes)
    if len(nodes) == 1:
        return nodes[0]
    if len(nodes) == 2:
        (c0, v0), (c1, v1) = nodes
        gate = controlled(
            _elevation_gate(v1, c1.dimension), (v0,), (c0.dimension,)
        )
        ops.append(gate.on(c0, c1))
        return (c1, 2)
    split = (len(nodes) - 1) // 2
    left_root = _conjunction_tree(nodes[:split], ops)
    right_root = _conjunction_tree(nodes[split + 1 :], ops)
    host, host_value = nodes[split]
    gate = controlled(
        _elevation_gate(host_value, host.dimension),
        (left_root[1], right_root[1]),
        (left_root[0].dimension, right_root[0].dimension),
    )
    ops.append(gate.on(left_root[0], right_root[0], host))
    return (host, 2)


def qutrit_multi_controlled_ops(
    controls: Sequence[Qudit],
    control_values: Sequence[int],
    target: Qudit,
    target_gate: Gate,
    decompose: bool = True,
) -> list[GateOperation]:
    """Operations applying ``target_gate`` iff every control matches.

    This is the reusable core: the incrementer embeds these gate lists
    inside a larger circuit.  With ``decompose=True`` the three-qutrit tree
    gates are lowered to two-qudit gates; with ``False`` the returned list
    is a permutation circuit that the classical simulator can verify in
    linear time (the granularity of Figure 5).
    """
    controls = list(controls)
    control_values = list(control_values)
    if len(controls) != len(control_values):
        raise ValueError("controls and control_values must align")
    for wire in controls:
        if wire.dimension < QUTRIT_D:
            raise DecompositionError(
                f"the tree needs controls with 3+ levels, got {wire}"
            )
    for value, wire in zip(control_values, controls):
        if not 0 <= value < wire.dimension:
            raise ValueError(f"control value {value} invalid for {wire}")

    if not controls:
        return [target_gate.on(target)]
    if len(controls) == 1:
        gate = controlled(
            target_gate, (control_values[0],), (controls[0].dimension,)
        )
        return [gate.on(controls[0], target)]

    nodes = _arrange(list(zip(controls, control_values)))
    compute: list[GateOperation] = []
    root, root_value = _conjunction_tree(nodes, compute)
    apply_op = controlled(
        target_gate, (root_value,), (root.dimension,)
    ).on(root, target)
    uncompute = [op.inverse() for op in reversed(compute)]
    ops = compute + [apply_op] + uncompute
    if decompose:
        ops = decompose_all(ops)
    return ops


def build_qutrit_tree(
    spec: GeneralizedToffoli,
    target_gate: Gate | None = None,
    decompose: bool = True,
    dimension: int = QUTRIT_D,
) -> ConstructionResult:
    """Build the paper's construction for ``spec`` on fresh qudit wires.

    The target wire shares the control dimension and the default target
    gate is X01 (the binary NOT embedded on levels {0, 1}), matching the
    paper's convention that inputs and outputs remain binary.

    ``dimension`` generalises the construction to d > 3 information
    carriers (the paper's future-work direction): the tree only ever uses
    levels {0, 1, 2}, so any d >= 3 works; with the root-of-U cascade the
    decomposed two-qudit count grows as 2d + 1 per tree gate, quantifying
    the paper's observation that d = 3 is the sweet spot absent
    connectivity pressure.
    """
    if dimension < QUTRIT_D:
        raise DecompositionError(
            f"the tree needs d >= 3 information carriers, got {dimension}"
        )
    controls = qudit_line([dimension] * spec.num_controls)
    target = Qudit(spec.num_controls, dimension)
    gate = target_gate or (
        X01 if dimension == QUTRIT_D else level_swap(dimension, 0, 1)
    )
    if gate.dims != (target.dimension,):
        raise DecompositionError(
            f"target gate {gate.name} does not fit a d={target.dimension} wire"
        )
    ops = qutrit_multi_controlled_ops(
        controls, spec.control_values, target, gate, decompose=decompose
    )
    circuit = Circuit(ops)
    return ConstructionResult(
        circuit=circuit,
        controls=controls,
        target=target,
        spec=spec,
        name="qutrit_tree" if dimension == QUTRIT_D else f"qudit_tree_d{dimension}",
    )
