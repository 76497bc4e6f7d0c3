"""Standard binary (d=2) gates.

These are the building blocks of the qubit-only baseline constructions
(Gidney-style dirty-ancilla circuits, Barenco cascades, He's ancilla tree).
"""

from __future__ import annotations

import numpy as np

from .base import Gate, PermutationGate, PhasedGate
from .intern import intern_gate
from .matrix import MatrixGate
from .spec import GATE_REGISTRY, GateSpec


def _qubit_matrix_gate(matrix: np.ndarray, name: str) -> MatrixGate:
    return MatrixGate(np.asarray(matrix, dtype=complex), (2,), name=name)


#: Identity on one qubit.
IDENTITY2 = PermutationGate([0, 1], (2,), "I2")

#: Pauli X (NOT).
X = PermutationGate([1, 0], (2,), "X")

#: Pauli Y.
Y = _qubit_matrix_gate([[0, -1j], [1j, 0]], "Y")

#: Pauli Z.
Z = PhasedGate([1, -1], (2,), "Z")

#: Hadamard.
H = _qubit_matrix_gate(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")

#: Phase gate S = diag(1, i).
S = PhasedGate([1, 1j], (2,), "S")

#: Inverse phase gate.
S_DAG = PhasedGate([1, -1j], (2,), "S^-1")

#: T gate = diag(1, e^{i pi/4}).
T = PhasedGate([1, np.exp(1j * np.pi / 4)], (2,), "T")

#: Inverse T gate.
T_DAG = PhasedGate([1, np.exp(-1j * np.pi / 4)], (2,), "T^-1")

#: Square root of X (the V gate of Barenco-style decompositions).
SQRT_X = _qubit_matrix_gate(
    np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2, "V=sqrt(X)"
)

#: Inverse square root of X.
SQRT_X_DAG = _qubit_matrix_gate(
    np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]) / 2, "V^-1"
)


def P(phi: float) -> PhasedGate:
    """Single-qubit phase gate diag(1, e^{i phi})."""
    phi = float(phi)
    gate = PhasedGate([1, np.exp(1j * phi)], (2,), f"P({phi:.4g})")
    gate._set_spec(GateSpec("P", (phi,), (2,)))
    return gate


def RX(theta: float) -> MatrixGate:
    """Rotation about X by ``theta``."""
    theta = float(theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    gate = _qubit_matrix_gate(
        [[c, -1j * s], [-1j * s, c]], f"RX({theta:.4g})"
    )
    gate._set_spec(GateSpec("RX", (theta,), (2,)))
    return gate


def RY(theta: float) -> MatrixGate:
    """Rotation about Y by ``theta``."""
    theta = float(theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    gate = _qubit_matrix_gate([[c, -s], [s, c]], f"RY({theta:.4g})")
    gate._set_spec(GateSpec("RY", (theta,), (2,)))
    return gate


def RZ(theta: float) -> MatrixGate:
    """Rotation about Z by ``theta``."""
    theta = float(theta)
    gate = _qubit_matrix_gate(
        np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]),
        f"RZ({theta:.4g})",
    )
    gate._set_spec(GateSpec("RZ", (theta,), (2,)))
    return gate


def power_of_x(exponent: float) -> Gate:
    """X**exponent with the principal branch: diag(1, e^{i pi exponent})
    conjugated by Hadamard.  ``exponent=1`` returns the plain X gate.

    These fractional-X gates are the "very small angle" rotations that
    appear in the ancilla-free qubit cascades (Sec. 3.2 of the paper).
    """
    if exponent == 1:
        return X
    exponent = float(exponent)
    h = H.unitary()
    phase = np.diag([1.0, np.exp(1j * np.pi * exponent)])
    gate = MatrixGate(h @ phase @ h, (2,), name=f"X^{exponent:.6g}")
    gate._set_spec(GateSpec("X_pow", (exponent,), (2,)))
    return gate


def controlled_power_of_x(exponent: float) -> Gate:
    """Singly-controlled X**exponent as a primitive two-qubit gate."""
    from .controlled import ControlledGate

    gate = ControlledGate(power_of_x(exponent), control_dims=(2,))
    gate._set_spec(GateSpec("CX_pow", (float(exponent),), (2, 2)))
    return gate


# ---------------------------------------------------------------------------
# Two- and three-qubit staples (built lazily to avoid import cycles).
# ---------------------------------------------------------------------------


def _build_controlled(sub: Gate, num_controls: int) -> Gate:
    from .controlled import ControlledGate

    return ControlledGate(sub, control_dims=(2,) * num_controls)


#: Controlled NOT.
CNOT = _build_controlled(X, 1)

#: Controlled Z.
CZ = _build_controlled(Z, 1)

#: Toffoli (CCX) as a single logical gate; decompose with
#: :func:`repro.gates.decompositions.toffoli_to_cnots` for hardware counts.
TOFFOLI = _build_controlled(X, 2)

#: SWAP on two qubits.
SWAP = PermutationGate([0, 2, 1, 3], (2, 2), "SWAP")


# ---------------------------------------------------------------------------
# Registry wiring: named constants round-trip by name, parameterized
# factories by (name, params); see repro.gates.spec.
# ---------------------------------------------------------------------------


def _register_constant(name: str, gate: Gate) -> None:
    gate._set_spec(GateSpec(name, (), gate.dims))
    intern_gate((name, (), gate.dims), lambda: gate)
    GATE_REGISTRY.register(name, lambda spec, gate=gate: gate)


for _name, _gate in (
    ("I2", IDENTITY2),
    ("X", X),
    ("Y", Y),
    ("Z", Z),
    ("H", H),
    ("S", S),
    ("S_DAG", S_DAG),
    ("T", T),
    ("T_DAG", T_DAG),
    ("SQRT_X", SQRT_X),
    ("SQRT_X_DAG", SQRT_X_DAG),
    ("CNOT", CNOT),
    ("CZ", CZ),
    ("TOFFOLI", TOFFOLI),
    ("SWAP", SWAP),
):
    _register_constant(_name, _gate)

GATE_REGISTRY.register("P", lambda spec: P(*spec.params))
GATE_REGISTRY.register("RX", lambda spec: RX(*spec.params))
GATE_REGISTRY.register("RY", lambda spec: RY(*spec.params))
GATE_REGISTRY.register("RZ", lambda spec: RZ(*spec.params))
GATE_REGISTRY.register("X_pow", lambda spec: power_of_x(*spec.params))
GATE_REGISTRY.register(
    "CX_pow", lambda spec: controlled_power_of_x(*spec.params)
)
