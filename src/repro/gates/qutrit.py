"""Ternary (d=3) and general d-level gates.

Section 2 of the paper defines the five nontrivial classical single-qutrit
permutations: the three transpositions X01, X02, X12 (each swaps two basis
elements, self-inverse) and the two cyclic shifts X+1 / X-1 (addition mod 3).
This module provides those, the ternary clock/phase gates, the qutrit
Hadamard (3-point Fourier transform), and generic d-dimensional versions
used by the Lanyon/Ralph-style high-d-target construction.
"""

from __future__ import annotations

import numpy as np

from .base import Gate, PermutationGate, PhasedGate
from .intern import exact, intern_gate
from .matrix import MatrixGate
from .spec import GATE_REGISTRY, GateSpec


def identity_gate(dim: int) -> PermutationGate:
    """Identity on a single d-level wire."""

    def build() -> PermutationGate:
        gate = PermutationGate(list(range(dim)), (dim,), f"I{dim}")
        gate._set_spec(GateSpec("identity", (), (dim,)))
        return gate

    if not exact(dim):
        return build()
    return intern_gate(("identity", (), (dim,)), build)


def level_swap(dim: int, level_a: int, level_b: int) -> PermutationGate:
    """Swap two levels of a d-level wire, leaving the rest unchanged.

    ``level_swap(3, 0, 1)`` is the paper's X01, etc.
    """

    def build() -> PermutationGate:
        if level_a == level_b:
            raise ValueError("levels to swap must differ")
        if not (0 <= level_a < dim and 0 <= level_b < dim):
            raise ValueError(
                f"levels {level_a},{level_b} out of range for d={dim}"
            )
        mapping = list(range(dim))
        mapping[level_a], mapping[level_b] = mapping[level_b], mapping[level_a]
        gate = PermutationGate(mapping, (dim,), f"X{level_a}{level_b}(d{dim})")
        gate._set_spec(GateSpec("level_swap", (level_a, level_b), (dim,)))
        return gate

    if not exact(dim, level_a, level_b):
        return build()
    return intern_gate(("level_swap", (level_a, level_b), (dim,)), build)


def shift_gate(dim: int, amount: int = 1) -> PermutationGate:
    """The cyclic +amount (mod dim) gate; ``shift_gate(3, 1)`` is X+1.

    Note on convention: the gate maps ``|v> -> |v + amount mod d>``.
    """
    amount %= dim

    def build() -> PermutationGate:
        mapping = [0] * dim
        for value in range(dim):
            mapping[value] = (value + amount) % dim
        sign = "+" if amount <= dim // 2 else "-"
        shown = amount if sign == "+" else dim - amount
        gate = PermutationGate(mapping, (dim,), f"X{sign}{shown}(d{dim})")
        gate._set_spec(GateSpec("shift", (amount,), (dim,)))
        return gate

    if not exact(dim, amount):
        return build()
    return intern_gate(("shift", (amount,), (dim,)), build)


def clock_gate(dim: int, power: int = 1) -> PhasedGate:
    """The generalized Pauli Z: diag(1, w, w^2, ...) with w = e^{2 pi i/d}."""

    def build() -> PhasedGate:
        omega = np.exp(2j * np.pi / dim)
        phases = [omega ** (power * k) for k in range(dim)]
        gate = PhasedGate(
            phases, (dim,), f"Z{dim}^{power}" if power != 1 else f"Z{dim}"
        )
        gate._set_spec(GateSpec("clock", (int(power),), (dim,)))
        return gate

    if not exact(dim, power):
        return build()
    return intern_gate(("clock", (power,), (dim,)), build)


def fourier_gate(dim: int) -> MatrixGate:
    """The d-point discrete Fourier transform (qutrit Hadamard for d=3)."""

    def build() -> MatrixGate:
        omega = np.exp(2j * np.pi / dim)
        matrix = np.array(
            [[omega ** (j * k) for k in range(dim)] for j in range(dim)]
        ) / np.sqrt(dim)
        gate = MatrixGate(matrix, (dim,), name=f"F{dim}")
        gate._set_spec(GateSpec("fourier", (), (dim,)))
        return gate

    if not exact(dim):
        return build()
    return intern_gate(("fourier", (), (dim,)), build)


def phase_gate(dim: int, level: int, phi: float) -> PhasedGate:
    """Apply phase e^{i phi} to a single level of a d-level wire."""
    phi = float(phi)
    phases = [1.0 + 0j] * dim
    phases[level] = np.exp(1j * phi)
    gate = PhasedGate(phases, (dim,), f"P{dim}[{level}]({phi:.4g})")
    gate._set_spec(GateSpec("phase", (int(level), phi), (dim,)))
    return gate


def embedded_qubit_gate(
    qubit_gate: Gate, dim: int = 3, levels: tuple[int, int] = (0, 1)
) -> Gate:
    """Embed a single-qubit gate into two levels of a d-level wire.

    The remaining levels are untouched.  This is how "all single qubit gates
    may be extended to operate on qutrits" (Sec. 2): e.g. the qubit X
    embedded in levels (0, 1) of a qutrit is exactly X01.
    """
    a, b = levels

    def build() -> MatrixGate:
        if qubit_gate.dims != (2,):
            raise ValueError("embedded_qubit_gate needs a single-qubit gate")
        small = qubit_gate.unitary()
        matrix = np.eye(dim, dtype=complex)
        matrix[a, a] = small[0, 0]
        matrix[a, b] = small[0, 1]
        matrix[b, a] = small[1, 0]
        matrix[b, b] = small[1, 1]
        gate = MatrixGate(
            matrix, (dim,), name=f"{qubit_gate.name}[{a}{b}](d{dim})"
        )
        gate._set_spec(
            GateSpec("embedded", (qubit_gate.spec(), int(a), int(b)), (dim,))
        )
        return gate

    sub_key = qubit_gate._key
    if sub_key is None or not exact(dim, a, b):
        return build()
    return intern_gate(("embedded", (sub_key, a, b), (dim,)), build)


# ---------------------------------------------------------------------------
# The paper's named qutrit gates (Figure 3).
# ---------------------------------------------------------------------------

#: Swap |0> and |1>, fix |2>.
X01 = level_swap(3, 0, 1)

#: Swap |0> and |2>, fix |1>.
X02 = level_swap(3, 0, 2)

#: Swap |1> and |2>, fix |0>.
X12 = level_swap(3, 1, 2)

#: +1 mod 3 on a qutrit.
X_PLUS_1 = shift_gate(3, 1)

#: -1 mod 3 on a qutrit.
X_MINUS_1 = shift_gate(3, 2)

#: Ternary clock gate Z3 = diag(1, w, w^2).
Z3 = clock_gate(3)

#: Ternary Hadamard (3-point Fourier transform).
QUTRIT_H = fourier_gate(3)

#: Identity on one qutrit.
IDENTITY3 = identity_gate(3)


# ---------------------------------------------------------------------------
# Registry wiring: specs carry (params, dims); dims hold the wire dimension.
# ---------------------------------------------------------------------------

GATE_REGISTRY.register(
    "identity", lambda spec: identity_gate(spec.dims[0])
)
GATE_REGISTRY.register(
    "level_swap", lambda spec: level_swap(spec.dims[0], *spec.params)
)
GATE_REGISTRY.register(
    "shift", lambda spec: shift_gate(spec.dims[0], *spec.params)
)
GATE_REGISTRY.register(
    "clock", lambda spec: clock_gate(spec.dims[0], *spec.params)
)
GATE_REGISTRY.register(
    "fourier", lambda spec: fourier_gate(spec.dims[0])
)
GATE_REGISTRY.register(
    "phase",
    lambda spec: phase_gate(spec.dims[0], spec.params[0], spec.params[1]),
)
GATE_REGISTRY.register(
    "embedded",
    lambda spec: embedded_qubit_gate(
        GATE_REGISTRY.build(spec.params[0]),
        spec.dims[0],
        (spec.params[1], spec.params[2]),
    ),
)
