"""Gate- and circuit-level dimension transforms, and the compile passes.

Lifting is structure-preserving: a :class:`ControlledGate` lifts to a
:class:`ControlledGate` over lifted sub-gates (so the qutrit cascade
decomposition still recognises it downstream — that is where temporary
ternary wins), and everything else wraps in an
:class:`~repro.gates.embedded.EmbeddedGate` that retains its sub-gate.
Lowering is the inverse: unwrap embeddings, recurse through controls,
and for anything opaque extract the qubit-subspace block of the unitary
— raising a typed :class:`~repro.exceptions.InteropError` when the
block is not unitary, i.e. when the gate leaks population out of the
subspace and the |2> occupation is *not* transient at that gate.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import GateOperation
from ..exceptions import InteropError, NotClassicalError
from ..execution.passes import CompilePass
from ..gates.base import (
    Gate,
    PermutationGate,
    index_to_values,
    values_to_index,
)
from ..gates.controlled import ControlledGate
from ..gates.embedded import EmbeddedGate
from ..gates.matrix import MatrixGate
from ..qudits import QUBIT_D, Qudit
from ..verify import assert_equivalent

__all__ = [
    "lift_gate",
    "lower_gate",
    "lift_circuit",
    "lower_circuit",
    "LiftToQutrits",
    "LowerToQubits",
]


def lift_gate(gate: Gate, new_dims: "tuple[int, ...]") -> Gate:
    """Embed ``gate`` into (elementwise no smaller) ``new_dims``.

    Controlled gates lift *through* their structure: controls keep their
    activation values on the enlarged wires (an added level never
    matches, so it behaves as the block-diagonal embedding requires) and
    the sub-gate lifts recursively.  This keeps the lifted gate visible
    to the multi-control decomposition rules — the temporary-ternary
    cascade fires on a lifted Toffoli exactly as on a native one.
    """
    new_dims = tuple(int(d) for d in new_dims)
    if new_dims == gate.dims:
        return gate
    if len(new_dims) != gate.num_qudits or any(
        n < o for n, o in zip(new_dims, gate.dims)
    ):
        raise InteropError(
            f"cannot lift {gate.name} from dims {gate.dims} to {new_dims}"
        )
    if isinstance(gate, ControlledGate):
        n = gate.num_controls
        sub = gate.sub_gate
        lifted_sub = (
            sub if sub.dims == new_dims[n:] else lift_gate(sub, new_dims[n:])
        )
        return ControlledGate(lifted_sub, new_dims[:n], gate.control_values)
    if isinstance(gate, EmbeddedGate):
        return EmbeddedGate(gate.sub_gate, new_dims)
    return EmbeddedGate(gate, new_dims)


def _project_gate(
    gate: Gate, new_dims: tuple[int, ...], atol: float
) -> Gate:
    """Extract the ``new_dims`` sub-block of an opaque gate's action."""
    new_total = 1
    for d in new_dims:
        new_total *= d
    embed = [
        values_to_index(index_to_values(k, new_dims), gate.dims)
        for k in range(new_total)
    ]
    try:
        table = gate.permutation()
    except NotClassicalError:
        table = None
    if table is not None:
        position = {index: k for k, index in enumerate(embed)}
        mapping = []
        for k, index in enumerate(embed):
            image = table[index]
            if image not in position:
                raise InteropError(
                    f"gate {gate.name} maps subspace state "
                    f"{index_to_values(index, gate.dims)} to "
                    f"{index_to_values(image, gate.dims)} — the elevated "
                    "population is not transient at this gate"
                )
            mapping.append(position[image])
        return PermutationGate(
            mapping, new_dims, f"{gate.name}|{new_dims}"
        )
    unitary = gate.unitary()
    block = unitary[np.ix_(embed, embed)]
    if not np.allclose(
        block.conj().T @ block, np.eye(new_total), atol=max(atol, 1e-7)
    ):
        raise InteropError(
            f"gate {gate.name} couples the qubit subspace to the added "
            "levels — the elevated population is not transient at this "
            "gate, so it cannot be lowered gate-by-gate"
        )
    return MatrixGate(block, new_dims, name=f"{gate.name}|{new_dims}")


def lower_gate(
    gate: Gate, new_dims: "tuple[int, ...]", atol: float = 1e-9
) -> Gate | None:
    """Restrict ``gate`` to (elementwise no larger) ``new_dims``.

    Returns ``None`` when the restricted action is structurally the
    identity — a control activating on a removed level can never fire in
    the subspace, so the operation is dropped by the lowering pass.
    Raises :class:`InteropError` when the gate's action leaks out of the
    subspace (checked exactly for classical gates, to ``atol`` against
    block unitarity otherwise).
    """
    new_dims = tuple(int(d) for d in new_dims)
    if new_dims == gate.dims:
        return gate
    if len(new_dims) != gate.num_qudits or any(
        n > o for n, o in zip(new_dims, gate.dims)
    ):
        raise InteropError(
            f"cannot lower {gate.name} from dims {gate.dims} to {new_dims}"
        )
    if isinstance(gate, EmbeddedGate):
        sub = gate.sub_gate
        if sub.dims == new_dims:
            return sub
        if all(s <= n for s, n in zip(sub.dims, new_dims)):
            return EmbeddedGate(sub, new_dims)
        return _project_gate(gate, new_dims, atol)
    if isinstance(gate, ControlledGate):
        n = gate.num_controls
        values = gate.control_values
        if any(v >= d for v, d in zip(values, new_dims[:n])):
            return None
        sub = lower_gate(gate.sub_gate, new_dims[n:], atol)
        if sub is None:
            return None
        return ControlledGate(sub, new_dims[:n], values)
    return _project_gate(gate, new_dims, atol)


class LiftToQutrits(CompilePass):
    """Re-host every qubit wire on a d >= 3 wire, lifting the gate catalog.

    Any gate — registered, structural, controlled, or hand-built — is
    translated through the embedding layer, and the pass *verifies* its
    own output (no qubit-dimensioned wire may survive where promotion was
    requested), raising :class:`InteropError` instead of ever emitting a
    dim-mismatched circuit.
    """

    def __init__(self, dim: int = 3) -> None:
        if dim < 3:
            raise ValueError("lift target dimension must be >= 3")
        self._dim = dim

    @property
    def dim(self) -> int:
        """Target wire dimension."""
        return self._dim

    def transform(self, circuit: Circuit) -> Circuit:
        occupied = set(circuit.all_qudits())
        mapping: dict[Qudit, Qudit] = {}
        for wire in circuit.all_qudits():
            if wire.dimension != QUBIT_D:
                continue
            lifted = Qudit(wire.index, self._dim)
            if lifted in occupied:
                raise InteropError(
                    f"cannot lift {wire}: wire {lifted} already exists"
                )
            mapping[wire] = lifted
        lifted_gates = 0

        def lift_op(op: GateOperation) -> list[GateOperation]:
            nonlocal lifted_gates
            if not any(w in mapping for w in op.qudits):
                return [op]
            new_wires = tuple(mapping.get(w, w) for w in op.qudits)
            new_dims = tuple(w.dimension for w in new_wires)
            lifted_gates += 1
            return [lift_gate(op.gate, new_dims).on(*new_wires)]

        lifted_circuit = circuit.transformed(lift_op)
        leftover = set(lifted_circuit.all_qudits()) & set(mapping)
        if leftover:
            raise InteropError(
                f"lift left qubit-dimensioned wires {sorted(leftover)} in "
                "the output circuit"
            )
        self.last_metadata = {
            "lifted_wires": len(mapping),
            "lifted_gates": lifted_gates,
            "target_dimension": self._dim,
        }
        return lifted_circuit


class LowerToQubits(CompilePass):
    """Project a lifted circuit back onto qubit wires.

    Every wire of dimension > 2 becomes a qubit with the same index, and
    every gate is restricted to the qubit subspace: embeddings unwrap to
    their sub-gates, controls recurse (controls activating on removed
    levels drop — they can never fire), and opaque gates lower through
    their subspace block.  A gate whose action couples the subspace to
    the added levels raises :class:`InteropError` — the pass's proof
    obligation that the |2> population is transient at every gate.

    ``verify=True`` additionally checks that the input acts on the qubit
    subspace exactly as the lowered circuit
    (:func:`repro.verify.assert_equivalent`).
    """

    def __init__(self, atol: float = 1e-9, verify: bool = False) -> None:
        self._atol = float(atol)
        self._verify = bool(verify)

    def transform(self, circuit: Circuit) -> Circuit:
        occupied = set(circuit.all_qudits())
        mapping: dict[Qudit, Qudit] = {}
        for wire in circuit.all_qudits():
            if wire.dimension <= QUBIT_D:
                continue
            lowered = Qudit(wire.index, QUBIT_D)
            if lowered in occupied:
                raise InteropError(
                    f"cannot lower {wire}: wire {lowered} already exists"
                )
            mapping[wire] = lowered
        counts = {"unwrapped": 0, "projected": 0, "dropped": 0}

        def lower_op(op: GateOperation) -> list[GateOperation]:
            if not any(w in mapping for w in op.qudits):
                return [op]
            new_wires = tuple(mapping.get(w, w) for w in op.qudits)
            new_dims = tuple(w.dimension for w in new_wires)
            gate = lower_gate(op.gate, new_dims, atol=self._atol)
            if gate is None:
                counts["dropped"] += 1
                return []
            if isinstance(op.gate, (EmbeddedGate, ControlledGate)):
                counts["unwrapped"] += 1
            else:
                counts["projected"] += 1
            return [gate.on(*new_wires)]

        lowered_circuit = circuit.transformed(lower_op)
        metadata = {
            "lowered_wires": len(mapping),
            **counts,
        }
        if self._verify:
            metadata["verified"] = assert_equivalent(
                circuit,
                lowered_circuit,
                wires=[mapping.get(w, w) for w in circuit.all_qudits()],
                context="LowerToQubits",
            ).oracle
        self.last_metadata = metadata
        return lowered_circuit


def lift_circuit(circuit: Circuit, dim: int = 3) -> Circuit:
    """Functional form of :class:`LiftToQutrits`."""
    return LiftToQutrits(dim).transform(circuit)


def lower_circuit(
    circuit: Circuit, atol: float = 1e-9, verify: bool = False
) -> Circuit:
    """Functional form of :class:`LowerToQubits`."""
    return LowerToQubits(atol=atol, verify=verify).transform(circuit)
