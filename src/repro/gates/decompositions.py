"""Decompositions of small multi-qudit gates into 1- and 2-qudit gates.

Hardware executes one- and two-qudit gates only (Sec. 4 of the paper), so
every three-qudit gate in the high-level constructions is lowered through
this module:

* :func:`toffoli_to_cnots` — the textbook 6-CNOT + 9-single-qubit Toffoli.
* :func:`two_controlled_qubit_u` — Barenco's 5-two-qubit-gate CC-U.
* :func:`decompose_controlled_controlled_u` — a two-controlled U on qudit
  wires with arbitrary activation values, via a root-of-U cascade on a
  d-level host control: 2d + 1 two-qudit gates (7 for a qutrit host).
  The paper cites Di & Wei's 6 two-qutrit + 7 single-qutrit decomposition
  for the same job; ours costs one extra two-qudit gate, which the
  benchmark write-ups account for.

The cascade (verified in tests for all activation values): conditional
``host += 1 (mod d)`` shifts interleaved between ``host == b``-controlled
applications of U^((d-1)/d), U^(-1/d), ..., followed by a final
``c0 == a``-controlled U^(1/d), leave the target with U-exponent 1 exactly
when both controls are active and 0 on every other basis state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import DecompositionError
from ..linalg import matrix_root
from .base import Gate
from .controlled import ControlledGate, controlled
from .intern import exact, intern_gate
from .matrix import MatrixGate
from .qubit import CNOT, H, T, T_DAG, X
from .qutrit import shift_gate
from .spec import GATE_REGISTRY, GateSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..circuits.operation import GateOperation
    from ..qudits import Qudit


def root_power_gate(base: Gate, k: int, d: int, name: str) -> MatrixGate:
    """``base ** (k/d)`` via the principal d-th root (negative k = dagger).

    The matrix is ``matrix_root(U, 1/d) ** |k|``, conjugate-transposed
    for negative ``k`` — the exact arithmetic the decompositions below
    perform, captured as a registered spec (``U_root_pow``) so derived
    gates rebuild bit-identically from serialized circuits.  A shared
    ``base`` gives a shared root, so each root is computed once per
    process.
    """

    def build() -> MatrixGate:
        root = matrix_root(base.unitary(), 1.0 / d)
        matrix = np.linalg.matrix_power(root, abs(k))
        if k < 0:
            matrix = matrix.conj().T
        gate = MatrixGate(matrix, base.dims, name=name)
        gate._set_spec(
            GateSpec(
                "U_root_pow", (base.spec(), int(k), int(d), name), base.dims
            )
        )
        return gate

    base_key = base._key
    if base_key is None or not exact(k, d, name):
        return build()
    return intern_gate(("U_root_pow", (base_key, k, d, name), base.dims), build)


GATE_REGISTRY.register(
    "U_root_pow",
    lambda spec: root_power_gate(
        GATE_REGISTRY.build(spec.params[0]), *spec.params[1:]
    ),
)


def toffoli_to_cnots(
    control_a: "Qudit", control_b: "Qudit", target: "Qudit"
) -> list["GateOperation"]:
    """Standard Toffoli decomposition: 6 CNOTs and 9 single-qubit gates."""
    a, b, t = control_a, control_b, target
    return [
        H.on(t),
        CNOT.on(b, t),
        T_DAG.on(t),
        CNOT.on(a, t),
        T.on(t),
        CNOT.on(b, t),
        T_DAG.on(t),
        CNOT.on(a, t),
        T.on(b),
        T.on(t),
        H.on(t),
        CNOT.on(a, b),
        T.on(a),
        T_DAG.on(b),
        CNOT.on(a, b),
    ]


def two_controlled_qubit_u(
    control_a: "Qudit",
    control_b: "Qudit",
    target: "Qudit",
    sub_gate: Gate,
    values: tuple[int, int] = (1, 1),
) -> list["GateOperation"]:
    """Barenco 5-gate CC-U for qubit controls.

    ``CV(c1,t) . CX(c0,c1) . CV^-1(c1,t) . CX(c0,c1) . CV(c0,t)`` with
    V = sqrt(U).  Controls that activate on 0 are X-conjugated.
    """
    v_gate = root_power_gate(sub_gate, 1, 2, f"sqrt({sub_gate.name})")
    v_dag = root_power_gate(sub_gate, -1, 2, f"sqrt({sub_gate.name})^-1")
    cv1 = controlled(v_gate, None, (2,))
    cv1_dag = controlled(v_dag, None, (2,))
    ops: list["GateOperation"] = []
    flipped = [
        wire
        for wire, value in zip((control_a, control_b), values)
        if value == 0
    ]
    for wire in flipped:
        ops.append(X.on(wire))
    ops.extend(
        [
            cv1.on(control_b, target),
            CNOT.on(control_a, control_b),
            cv1_dag.on(control_b, target),
            CNOT.on(control_a, control_b),
            cv1.on(control_a, target),
        ]
    )
    for wire in flipped:
        ops.append(X.on(wire))
    return ops


def decompose_controlled_controlled_u(
    control_a: "Qudit",
    control_b: "Qudit",
    target: "Qudit",
    sub_gate: Gate,
    values: tuple[int, int] = (1, 1),
) -> list["GateOperation"]:
    """Lower a two-controlled U (arbitrary activation values) to 2-qudit gates.

    Dispatches to the qubit-only Barenco form when both controls are qubits;
    otherwise uses the cube-root cascade, which needs (at least) one qutrit
    control to host the conditional +1 shifts.
    """
    if control_a.dimension == 2 and control_b.dimension == 2:
        if max(values) > 1:
            raise DecompositionError(
                "qubit controls cannot activate on values above 1"
            )
        return two_controlled_qubit_u(
            control_a, control_b, target, sub_gate, values
        )
    # The shift host needs d >= 3 levels: d conditional +1 shifts walk it
    # around the full cycle and restore it.
    a_val, b_val = values
    if control_b.dimension < 3:
        control_a, control_b = control_b, control_a
        a_val, b_val = b_val, a_val

    da, db = control_a.dimension, control_b.dimension
    u_top = root_power_gate(
        sub_gate, db - 1, db, f"{sub_gate.name}^({db - 1}/{db})"
    )
    u_root = root_power_gate(
        sub_gate, 1, db, f"{sub_gate.name}^(1/{db})"
    )
    u_root_dag = root_power_gate(
        sub_gate, -1, db, f"{sub_gate.name}^(-1/{db})"
    )

    shift = controlled(shift_gate(db, 1), (a_val,), (da,))
    undo = controlled(u_root_dag, (b_val,), (db,))

    # Exponent bookkeeping (generalising the d=3 case): with conditional
    # shifts interleaved, the target accrues U^((d-1)/d) when the host
    # started at b and U^(-1/d) at each of the other d-1 starting values;
    # the trailing a-controlled U^(1/d) lifts every active row by 1/d,
    # netting exponent 1 exactly on (a, b) and 0 elsewhere.
    ops = [controlled(u_top, (b_val,), (db,)).on(control_b, target)]
    for _ in range(db - 1):
        ops.append(shift.on(control_a, control_b))
        ops.append(undo.on(control_b, target))
    ops.append(shift.on(control_a, control_b))
    ops.append(controlled(u_root, (a_val,), (da,)).on(control_a, target))
    return ops


def decompose_operation(op: "GateOperation") -> list["GateOperation"]:
    """Lower an operation to 1- and 2-qudit operations.

    * 1- and 2-qudit operations pass through unchanged.
    * Two-controlled gates go through
      :func:`decompose_controlled_controlled_u`.
    * Anything wider raises :class:`DecompositionError` — the library's
      constructions never produce wider primitives.
    """
    if op.gate.num_qudits <= 2:
        return [op]
    gate = op.gate
    if isinstance(gate, ControlledGate) and gate.num_controls == 2:
        c0, c1, *targets = op.qudits
        if len(targets) != 1:
            raise DecompositionError(
                "only single-target two-controlled gates are supported, got "
                f"{gate.name}"
            )
        return decompose_controlled_controlled_u(
            c0, c1, targets[0], gate.sub_gate, gate.control_values
        )
    raise DecompositionError(
        f"no decomposition rule for {gate.name} on {len(op.qudits)} wires"
    )


def decompose_all(
    operations: Sequence["GateOperation"],
) -> list["GateOperation"]:
    """Map :func:`decompose_operation` over a sequence of operations."""
    lowered: list["GateOperation"] = []
    for op in operations:
        lowered.extend(decompose_operation(op))
    return lowered
