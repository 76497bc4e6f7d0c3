"""Ancilla-free qubit-only Generalized Toffoli (the paper's QUBIT baseline).

The paper benchmarks Gidney's ancilla-free construction, characterised by
linear scaling with *large* constants (633N depth, 397N two-qubit gates)
and rotation gates with very small angles.  Gidney's exact gate sequence is
specified only in a blog post, so this module substitutes a
correct-by-construction zero-ancilla decomposition in the same cost regime
at the paper's simulated sizes:

Barenco Lemma 7.5 target-peeling — ``C^n U = CV . C^{n-1}X . CV^-1 .
C^{n-1}X . C^{n-1}V`` with ``V = sqrt(U)`` — applied recursively.  Every
peeled control joins a pool of *borrowed* wires, so each level's two
C^{k}X gates use the dirty-ancilla ladders of
:mod:`repro.toffoli.dirty_ancilla` and stay linear in k.  The V-cascade
produces the hallmark X^(1/2^j) small-angle gates.  Total cost is
Theta(N^2) with a small constant; at the paper's evaluation width
(N = 13 controls) the two-qubit gate count is within ~1.5x of the paper's
397N figure, so the fidelity experiment (Figure 11) compares like against
like.  The depth/count sweeps report our measured curve next to the
paper's reported fit.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import GateOperation
from ..exceptions import DecompositionError
from ..gates.controlled import controlled
from ..gates.decompositions import two_controlled_qubit_u
from ..gates.intern import exact, intern_gate
from ..gates.matrix import MatrixGate
from ..gates.qubit import X
from ..linalg import matrix_root
from ..qudits import QUBIT_D, Qudit, qubits
from .dirty_ancilla import mcx_auto
from .spec import ConstructionResult, GeneralizedToffoli


def _matrix_gate(matrix: np.ndarray, name: str) -> MatrixGate:
    """The single-qubit ``MatrixGate(matrix, name)``, shared per exact
    (name, matrix)."""
    matrix = np.asarray(matrix, dtype=complex)

    def build() -> MatrixGate:
        return MatrixGate(matrix, (QUBIT_D,), name=name)

    if not exact(name):
        return build()
    return intern_gate(
        ("__matrix__", (name, matrix.tobytes()), (QUBIT_D,)), build
    )


def _sqrt_gate(gate: MatrixGate, name: str) -> MatrixGate:
    """``matrix_root(U, 1/2)`` of ``gate`` as a gate named ``name``.

    Keyed on its derivation (the parent's key and the name), which fixes
    the matrix bit for bit, so each root is computed once per process.
    """

    def build() -> MatrixGate:
        return MatrixGate(
            matrix_root(gate.unitary(), 0.5), gate.dims, name=name
        )

    if gate._key is None or not exact(name):
        return build()
    return intern_gate(("__sqrt__", gate._key, name), build)


def multi_controlled_u_cascade(
    controls: list[Qudit],
    target: Qudit,
    u_matrix: np.ndarray,
    u_name: str = "U",
    decompose: bool = True,
) -> list[GateOperation]:
    """C^k U on exactly ``k + 1`` wires — no ancilla, clean or dirty.

    The recursion peels the last control with controlled square roots of U;
    the two inner C^{k-1}X gates borrow the target plus previously peeled
    controls as dirty wires.
    """
    ops: list[GateOperation] = []

    def cascade(ctrls: list[Qudit], u: MatrixGate, pool: list[Qudit]) -> None:
        k = len(ctrls)
        if k == 0:
            ops.append(u.on(target))
            return
        if k == 1:
            ops.append(controlled(u, None, (QUBIT_D,)).on(ctrls[0], target))
            return
        if k == 2:
            ops.extend(two_controlled_qubit_u(ctrls[0], ctrls[1], target, u))
            return
        v = _sqrt_gate(u, f"sqrt({u.name})")
        last, rest = ctrls[-1], ctrls[:-1]
        cv = controlled(v, None, (QUBIT_D,))
        cv_dag = controlled(v.inverse(), None, (QUBIT_D,))
        x_dirty = pool + [target]
        ops.append(cv.on(last, target))
        ops.extend(mcx_auto(rest, last, x_dirty, decompose))
        ops.append(cv_dag.on(last, target))
        ops.extend(mcx_auto(rest, last, x_dirty, decompose))
        cascade(rest, v, pool + [last])

    cascade(list(controls), _matrix_gate(u_matrix, u_name), [])
    return ops


def build_ancilla_free_cascade(
    spec: GeneralizedToffoli, decompose: bool = True
) -> ConstructionResult:
    """The QUBIT benchmark: N-controlled X on N+1 qubit wires, zero ancilla."""
    n = spec.num_controls
    controls = qubits(n)
    target = Qudit(n, QUBIT_D)
    for value in spec.control_values:
        if value > 1:
            raise DecompositionError(
                "qubit constructions support activation values 0 and 1 only"
            )
    flips = [
        X.on(wire)
        for wire, value in zip(controls, spec.control_values)
        if value == 0
    ]
    core = multi_controlled_u_cascade(
        controls, target, X.unitary(), "X", decompose
    )
    circuit = Circuit(flips + core + flips)
    return ConstructionResult(
        circuit=circuit,
        controls=controls,
        target=target,
        spec=spec,
        name="qubit_ancilla_free",
    )
