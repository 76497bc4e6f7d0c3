"""Wang & Perkowski's linear-depth qutrit-control chain (Table 1).

Like the paper's tree, the controls are qutrits and |2> marks partial
conjunctions — but the elevations ripple down a chain instead of a tree:
control i is elevated iff control i-1 reached |2>, so the last control ends
at |2> iff every control was active.  Linear depth, zero ancilla, small
constants: the qutrit tree keeps all of this and upgrades depth to log N.
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from ..circuits.operation import GateOperation
from ..exceptions import DecompositionError
from ..gates.base import Gate
from ..gates.controlled import controlled
from ..gates.qutrit import X01, X02, X_PLUS_1
from ..qudits import QUTRIT_D, Qudit, qutrits
from .spec import ConstructionResult, GeneralizedToffoli


def _elevation_gate(active_value: int) -> Gate:
    if active_value == 1:
        return X_PLUS_1
    if active_value == 0:
        return X02
    raise DecompositionError(
        "chain elevation hosts must activate on 0 or 1"
    )


def build_wang_chain(
    spec: GeneralizedToffoli, target_gate: Gate | None = None
) -> ConstructionResult:
    """Linear-depth ancilla-free qutrit chain for ``spec``."""
    n = spec.num_controls
    controls = qutrits(n)
    target = Qudit(n, QUTRIT_D)
    gate = target_gate or X01
    if gate.dims != (target.dimension,):
        raise DecompositionError(
            f"target gate {gate.name} does not fit a d={target.dimension} wire"
        )
    values = spec.control_values
    if n and values[0] == 2 and n > 1:
        raise DecompositionError(
            "the chain's first control may not activate on |2>"
        )

    if n == 0:
        circuit = Circuit([gate.on(target)])
        return ConstructionResult(
            circuit, controls, target, spec, "wang_chain"
        )
    if n == 1:
        op = controlled(gate, (values[0],), (QUTRIT_D,)).on(
            controls[0], target
        )
        return ConstructionResult(
            Circuit([op]), controls, target, spec, "wang_chain"
        )

    compute: list[GateOperation] = []
    # First link: elevate control 1 conditioned on control 0's own value.
    compute.append(
        controlled(
            _elevation_gate(values[1]), (values[0],), (QUTRIT_D,)
        ).on(controls[0], controls[1])
    )
    # Ripple: elevate control i conditioned on control i-1 being |2>.
    for i in range(2, n):
        compute.append(
            controlled(
                _elevation_gate(values[i]), (2,), (QUTRIT_D,)
            ).on(controls[i - 1], controls[i])
        )
    apply_op = controlled(gate, (2,), (QUTRIT_D,)).on(
        controls[-1], target
    )
    uncompute = [op.inverse() for op in reversed(compute)]
    circuit = Circuit(compute + [apply_op] + uncompute)
    return ConstructionResult(
        circuit=circuit,
        controls=controls,
        target=target,
        spec=spec,
        name="wang_chain",
    )
