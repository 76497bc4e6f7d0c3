"""Circuit cost models for the rewrite engine's accept/reject decision.

A rewrite is only kept when it does not worsen the circuit under the
active :class:`CostModel`.  Costs are compared lexicographically as
``(two-qudit gates, non-Clifford gates, total gates, depth)`` — the
order the paper's error model implies: two-qudit interactions dominate
hardware error (Sec. 5), non-Clifford gates dominate fault-tolerant
cost, and depth is the paper's time metric (Sec. 2).

The default instance is qutrit Clifford+T-aware, following Yeh & van de
Wetering's qutrit Clifford+T gate set ("Constructing all qutrit
controlled Clifford+T gates in Clifford+T", arXiv:2204.00552): diagonal
gates on the ``2*pi/d`` phase grid (``pi/2`` for qubits) are Clifford,
one step finer (``2*pi/d^2``; ``pi/4`` for qubits) are T-level, and
anything finer — the fractional-power rotations of the Barenco cascades
— counts as generic non-Clifford.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..circuits.circuit import Circuit
from ..gates.base import Gate
from ..gates.controlled import ControlledGate
from .commutation import interned, spec_id

#: Registered semantic names that are Clifford for every parameter value.
_CLIFFORD_NAMES = frozenset(
    {
        "I2",
        "X",
        "Y",
        "Z",
        "H",
        "S",
        "S_DAG",
        "CNOT",
        "CZ",
        "SWAP",
        "identity",
        "level_swap",
        "shift",
        "clock",
        "fourier",
    }
)

#: Registered semantic names that are exactly T-level.
_T_NAMES = frozenset({"T", "T_DAG"})


@dataclass(frozen=True)
class CircuitCost:
    """The four cost axes the engine compares, cheapest-first on ties."""

    depth: int
    total_gates: int
    two_qudit_gates: int
    non_clifford_gates: int

    def score(self) -> tuple[int, int, int, int]:
        """Lexicographic comparison key (lower is strictly better)."""
        return (
            self.two_qudit_gates,
            self.non_clifford_gates,
            self.total_gates,
            self.depth,
        )

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "total_gates": self.total_gates,
            "two_qudit_gates": self.two_qudit_gates,
            "non_clifford_gates": self.non_clifford_gates,
        }


@runtime_checkable
class CostModel(Protocol):
    """Anything that prices a circuit for the rewrite engine."""

    name: str

    def cost(self, circuit: Circuit) -> CircuitCost:
        """Price ``circuit``; the engine compares ``cost(...).score()``."""
        ...  # pragma: no cover - protocol body


def _phase_grid_level(phases: np.ndarray, dim: int, atol: float) -> int:
    """0 = Clifford grid, 1 = T grid, 2 = off-grid, for a phase vector.

    The grid step is ``2*pi/d^2`` for qubits (``pi/2`` Clifford,
    ``pi/4`` T) and ``2*pi/d`` for higher dimensions (qutrit Clifford
    phases are cube roots of unity; T-level phases ninth roots), per
    arXiv:2204.00552.
    """
    clifford_steps = 4 if dim == 2 else dim
    angles = np.angle(phases) * clifford_steps / (2 * np.pi)
    if np.allclose(angles, np.round(angles), atol=atol):
        return 0
    angles = angles * dim
    if np.allclose(angles, np.round(angles), atol=atol):
        return 1
    return 2


class QutritCliffordTCostModel:
    """Clifford+T-aware gate pricing for mixed qubit/qutrit circuits."""

    name = "qutrit-clifford-t"

    def __init__(self, atol: float = 1e-9) -> None:
        self._atol = atol
        #: canonical spec id -> Clifford verdict.
        self._clifford_cache: dict[int, bool] = {}

    def is_clifford(self, gate: Gate) -> bool:
        """Heuristic Clifford membership (False = priced as non-Clifford).

        Decided from the semantic spec name where registered, from the
        phase grid for diagonal gates, and from structure otherwise:
        1- and 2-wire basis permutations are Clifford (qudit Paulis,
        CNOT-likes, SWAPs), wider permutations (Toffolis) and
        unrecognized matrices are not.  Conservative by construction —
        misclassifying a Clifford as non-Clifford only makes the engine
        stricter about accepting rewrites.
        """
        return self._clifford(gate, spec_id(gate))

    def _clifford(self, gate: Gate, gate_id: int) -> bool:
        cached = self._clifford_cache.get(gate_id)
        if cached is None:
            cached = self._classify(gate)
            self._clifford_cache[gate_id] = cached
        return cached

    def _classify(self, gate: Gate) -> bool:
        spec = gate.spec()
        if spec.name in _CLIFFORD_NAMES:
            return True
        if spec.name in _T_NAMES:
            return False
        if spec.name == "embedded":
            from ..gates.spec import GATE_REGISTRY

            return self.is_clifford(GATE_REGISTRY.build(spec.params[0]))
        if isinstance(gate, ControlledGate):
            sub = gate.sub_gate
            if gate.num_qudits <= 2 and sub.is_classical:
                return True
            if gate.num_qudits <= 2 and sub.is_diagonal:
                phases = gate.diagonal_phases()
                assert phases is not None
                return (
                    _phase_grid_level(phases, max(gate.dims), self._atol)
                    == 0
                )
            return False
        phases = gate.diagonal_phases()
        if phases is not None:
            return (
                _phase_grid_level(phases, max(gate.dims), self._atol) == 0
            )
        if gate.is_classical:
            return gate.num_qudits <= 2
        return False

    def cost(self, circuit: Circuit) -> CircuitCost:
        non_clifford = sum(
            1
            for op in circuit.all_operations()
            if not self._clifford(op.gate, interned(op).spec)
        )
        return CircuitCost(
            depth=circuit.depth,
            total_gates=circuit.num_operations,
            two_qudit_gates=circuit.two_qudit_gate_count,
            non_clifford_gates=non_clifford,
        )


class GateCountCostModel:
    """Structure-only pricing: every gate costs 1, no Clifford analysis.

    Useful when the gate set is exotic enough that Clifford
    classification is meaningless; the score still orders two-qudit
    count first, so routing-sensitive rewrites behave the same.
    """

    name = "gate-count"

    def cost(self, circuit: Circuit) -> CircuitCost:
        return CircuitCost(
            depth=circuit.depth,
            total_gates=circuit.num_operations,
            two_qudit_gates=circuit.two_qudit_gate_count,
            non_clifford_gates=0,
        )


#: Named cost models for CLI / facade string resolution.
COST_MODELS = {
    QutritCliffordTCostModel.name: QutritCliffordTCostModel,
    GateCountCostModel.name: GateCountCostModel,
}


def resolve_cost_model(model: "str | CostModel | None") -> CostModel:
    """Accept a model instance, a registered name, or None (default)."""
    if model is None:
        return QutritCliffordTCostModel()
    if isinstance(model, str):
        try:
            return COST_MODELS[model]()
        except KeyError:
            raise ValueError(
                f"unknown cost model {model!r}; known: "
                f"{sorted(COST_MODELS)}"
            ) from None
    if isinstance(model, CostModel):
        return model
    raise TypeError(
        f"cost model must be a CostModel, name, or None, got "
        f"{type(model).__name__}"
    )
