"""Compilation of qubit circuits to the CNOT + single-qubit native set.

This defines the *naive lift* baseline of the interop benchmark
(Sec. V of the paper): compile a circuit for a qubit machine first —
CNOT plus arbitrary single-qubit gates, the standard superconducting
contract — then re-host the result wire-by-wire on the qutrit device.
Temporary ternary instead lifts *before* decomposing, so multi-control
structure survives to the qutrit cascade; the gap between the two paths
is the paper's claim, and this module makes the baseline honest:

* Toffoli lowers through the textbook 6-CNOT network;
* generic two-controlled U goes through Barenco's 5-gate form, whose
  controlled square roots expand recursively;
* controlled-U lowers via the ZYZ/ABC construction
  ``CU = P(alpha)_c . A_t . CNOT . B_t . CNOT . C_t`` with
  ``A = RZ(beta) RY(gamma/2)``, ``B = RY(-gamma/2) RZ(-(delta+beta)/2)``,
  ``C = RZ((delta-beta)/2)``;
* controlled-phase keeps its cheaper 2-CNOT + 3-phase special case
  (QFT is made of these, so the baseline should not overpay there);
* SWAP becomes 3 CNOTs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import GateOperation
from ..exceptions import InteropError
from ..execution.passes import CompilePass
from ..gates.base import Gate
from ..gates.controlled import ControlledGate
from ..gates.decompositions import (
    toffoli_to_cnots,
    two_controlled_qubit_u,
)
from ..gates.matrix import MatrixGate
from ..gates.qubit import CNOT, P, SWAP, X
from ..qudits import QUBIT_D, Qudit

__all__ = [
    "zyz_angles",
    "controlled_u_to_qubit_basis",
    "to_qubit_basis",
    "DecomposeToQubitBasis",
]

_ATOL = 1e-10

_X_CANONICAL = X.canonical_spec()
_SWAP_CANONICAL = SWAP.canonical_spec()


def zyz_angles(unitary: np.ndarray) -> tuple[float, float, float, float]:
    """Angles ``(alpha, beta, gamma, delta)`` with
    ``U = e^{i alpha} RZ(beta) RY(gamma) RZ(delta)``."""
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (2, 2):
        raise InteropError(
            f"ZYZ factorisation needs a 2x2 unitary, got shape {u.shape}"
        )
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = 0.5 * cmath.phase(det)
    v = u * cmath.exp(-1j * alpha)
    gamma = 2.0 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[0, 0]) < _ATOL:
        beta = 2.0 * cmath.phase(v[1, 0])
        delta = 0.0
    elif abs(v[1, 0]) < _ATOL:
        beta = -2.0 * cmath.phase(v[0, 0])
        delta = 0.0
    else:
        plus = -2.0 * cmath.phase(v[0, 0])
        minus = 2.0 * cmath.phase(v[1, 0])
        beta = (plus + minus) / 2.0
        delta = (plus - minus) / 2.0
    return alpha, beta, gamma, delta


def _rz(theta: float) -> np.ndarray:
    return np.diag(
        [cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)]
    )


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _one_qubit(matrix: np.ndarray, name: str) -> "MatrixGate | None":
    """A named single-qubit gate, or None when it is the identity."""
    if np.allclose(matrix, np.eye(2), atol=_ATOL):
        return None
    return MatrixGate(matrix, (QUBIT_D,), name=name)


def _angle_is_trivial(theta: float) -> bool:
    return abs(cmath.exp(1j * theta) - 1.0) < _ATOL


def _controlled_phase(
    control: Qudit, target: Qudit, theta: float
) -> list[GateOperation]:
    """CP(theta) as 2 CNOTs and 3 phase gates."""
    if _angle_is_trivial(theta):
        return []
    half = theta / 2.0
    return [
        P(half).on(control),
        P(half).on(target),
        CNOT.on(control, target),
        P(-half).on(target),
        CNOT.on(control, target),
    ]


def controlled_u_to_qubit_basis(
    control: Qudit, target: Qudit, sub_gate: Gate
) -> list[GateOperation]:
    """Controlled-U on qubits as CNOTs and single-qubit gates.

    Diagonal U takes the controlled-phase special case (a control-side
    phase plus CP); anything else goes through the ZYZ/ABC form.
    Identity factors are dropped, so e.g. controlled-Z costs the same
    5 operations as a generic controlled-phase.
    """
    phases = sub_gate.diagonal_phases()
    if phases is not None:
        a = cmath.phase(phases[0])
        b = cmath.phase(phases[1])
        ops: list[GateOperation] = []
        if not _angle_is_trivial(a):
            ops.append(P(a).on(control))
        ops.extend(_controlled_phase(control, target, b - a))
        return ops
    alpha, beta, gamma, delta = zyz_angles(sub_gate.unitary())
    label = sub_gate.name
    a_gate = _one_qubit(_rz(beta) @ _ry(gamma / 2.0), f"A[{label}]")
    b_gate = _one_qubit(
        _ry(-gamma / 2.0) @ _rz(-(delta + beta) / 2.0), f"B[{label}]"
    )
    c_gate = _one_qubit(_rz((delta - beta) / 2.0), f"C[{label}]")
    ops = []
    if c_gate is not None:
        ops.append(c_gate.on(target))
    ops.append(CNOT.on(control, target))
    if b_gate is not None:
        ops.append(b_gate.on(target))
    ops.append(CNOT.on(control, target))
    if a_gate is not None:
        ops.append(a_gate.on(target))
    if not _angle_is_trivial(alpha):
        ops.append(P(alpha).on(control))
    return ops


def _x_conjugated(
    wires: list[Qudit], inner: list[GateOperation]
) -> list[GateOperation]:
    flips = [X.on(w) for w in wires]
    return flips + inner + list(reversed(flips))


def to_qubit_basis(op: GateOperation) -> list[GateOperation]:
    """Rewrite one operation into CNOTs and single-qubit gates.

    Raises :class:`InteropError` for operations with no rule — wires of
    dimension above two, gates on three or more wires that are not
    two-controlled, or opaque multi-qubit unitaries (no KAK synthesis
    here; the workload generators never emit one).
    """
    gate = op.gate
    if any(w.dimension != QUBIT_D for w in op.qudits):
        raise InteropError(
            f"qubit-basis compilation saw non-qubit wires in {op}"
        )
    if gate.num_qudits == 1:
        return [op]
    if isinstance(gate, ControlledGate):
        sub = gate.sub_gate
        values = gate.control_values
        controls = list(op.qudits[: gate.num_controls])
        flipped = [w for w, v in zip(controls, values) if v == 0]
        if gate.num_controls == 1:
            control, target = op.qudits
            if sub.canonical_spec() == _X_CANONICAL:
                inner = [CNOT.on(control, target)]
            else:
                inner = controlled_u_to_qubit_basis(control, target, sub)
            return _x_conjugated(flipped, inner) if flipped else inner
        if gate.num_controls == 2 and sub.num_qudits == 1:
            c0, c1, target = op.qudits
            if sub.canonical_spec() == _X_CANONICAL:
                inner = toffoli_to_cnots(c0, c1, target)
                return (
                    _x_conjugated(flipped, inner) if flipped else inner
                )
            barenco = two_controlled_qubit_u(
                c0, c1, target, sub, values
            )
            expanded: list[GateOperation] = []
            for piece in barenco:
                expanded.extend(to_qubit_basis(piece))
            return expanded
        raise InteropError(
            f"no qubit-basis rule for {gate.name} with "
            f"{gate.num_controls} controls"
        )
    if gate.canonical_spec() == _SWAP_CANONICAL:
        a, b = op.qudits
        return [CNOT.on(a, b), CNOT.on(b, a), CNOT.on(a, b)]
    raise InteropError(
        f"no qubit-basis rule for {gate.name} on "
        f"{gate.num_qudits} wires"
    )


class DecomposeToQubitBasis(CompilePass):
    """Compile a qubit circuit to CNOT + arbitrary single-qubit gates.

    The qubit-machine lowering stage: after it, every operation is
    either a single-qubit gate or a CNOT, which is what a qubit device
    — or a qutrit device running a naively lifted circuit — executes.
    """

    def transform(self, circuit: Circuit) -> Circuit:
        bad = [
            w for w in circuit.all_qudits() if w.dimension != QUBIT_D
        ]
        if bad:
            raise InteropError(
                "qubit-basis compilation needs an all-qubit circuit; "
                f"found wires {bad}"
            )
        before = sum(1 for _ in circuit.all_operations())
        lowered = circuit.transformed(to_qubit_basis)
        self.last_metadata = {
            "input_operations": before,
            "output_operations": sum(
                1 for _ in lowered.all_operations()
            ),
        }
        return lowered
