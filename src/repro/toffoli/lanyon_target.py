"""Lanyon/Ralph-style construction: the target as a high-dimensional qudit.

Table 1's last column: keep the controls as qubits but give the *target*
extra levels.  Our faithful adaptation uses a "shelving" scheme on a
(2N + 2)-level target: each inactive control shelves the target's
computational amplitudes into a private pair of upper levels, the target
flip acts on levels {0, 1} only (so it is vacuous whenever anything was
shelved), and the shelves are then reversed.  Linear depth, zero ancilla,
2N + 1 two-qudit gates — the linear-depth / qudit-target trade-off the
paper contrasts its log-depth tree against.
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from ..circuits.operation import GateOperation
from ..exceptions import DecompositionError
from ..gates.base import Gate, PermutationGate, permutation_gate
from ..gates.controlled import controlled
from ..qudits import QUBIT_D, Qudit, qubits
from .spec import ConstructionResult, GeneralizedToffoli


def _shelf_gate(dim: int, shelf_index: int) -> PermutationGate:
    """Swap computational levels {0,1} with shelf pair {2+2i, 3+2i}."""
    lo, hi = 2 + 2 * shelf_index, 3 + 2 * shelf_index
    if hi >= dim:
        raise DecompositionError(
            f"shelf {shelf_index} does not fit in a d={dim} target"
        )
    mapping = list(range(dim))
    mapping[0], mapping[lo] = mapping[lo], mapping[0]
    mapping[1], mapping[hi] = mapping[hi], mapping[1]
    return permutation_gate(mapping, (dim,), f"SHELF{shelf_index}(d{dim})")


def build_lanyon_target(
    spec: GeneralizedToffoli, target_gate: Gate | None = None
) -> ConstructionResult:
    """Linear-depth construction with a d = 2N+2 target qudit."""
    n = spec.num_controls
    controls = qubits(n)
    target_dim = max(2, 2 * n + 2)
    target = Qudit(n, target_dim)
    for value in spec.control_values:
        if value > 1:
            raise DecompositionError(
                "qubit controls support activation values 0 and 1 only"
            )

    if target_gate is None:
        mapping = list(range(target_dim))
        mapping[0], mapping[1] = 1, 0
        target_gate = permutation_gate(mapping, (target_dim,), "X01")
    if target_gate.dims != (target_dim,):
        raise DecompositionError(
            f"target gate must act on the d={target_dim} target"
        )

    shelve: list[GateOperation] = []
    for i, (wire, value) in enumerate(zip(controls, spec.control_values)):
        inactive = 1 - value
        shelve.append(
            controlled(
                _shelf_gate(target_dim, i), (inactive,), (QUBIT_D,)
            ).on(wire, target)
        )
    flip = target_gate.on(target)
    unshelve = [op.inverse() for op in reversed(shelve)]
    circuit = Circuit(shelve + [flip] + unshelve)
    return ConstructionResult(
        circuit=circuit,
        controls=controls,
        target=target,
        spec=spec,
        name="lanyon_target",
    )
