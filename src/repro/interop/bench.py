"""Naive-lift vs temporary-ternary compilation (the paper's Sec. V claim).

Two compilation paths from the same qubit workload to a qutrit device:

* **naive** — compile for a qubit machine first
  (:class:`~repro.interop.qubitbasis.DecomposeToQubitBasis`: CNOT +
  single-qubit gates), then lift the result wire-by-wire.  Every
  Toffoli has already paid its 6-CNOT toll before the device's third
  level is even visible.
* **ternary** — lift first (structure-preserving, so multi-controlled
  gates survive as :class:`~repro.gates.controlled.ControlledGate`),
  then lower through the qutrit cascade
  (:class:`~repro.execution.passes.DecomposeToWidth2`), which spends
  the |2> level as workspace.

The ``interop`` bench suite (:mod:`repro.analysis.bench`) compiles the
cases below both ways, checks each against the qubit original
(:func:`repro.verify.assert_equivalent`), and routes the results onto
the topology zoo.
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from ..execution.passes import DecomposeToWidth2
from .qubitbasis import DecomposeToQubitBasis
from .transform import lift_circuit

#: (workload, size) cases of the full sweep; smoke keeps a prefix so
#: smoke records always join against the committed full report.
INTEROP_CASES: tuple[tuple[str, int], ...] = (
    ("qft", 4),
    ("adder", 2),
    ("qft", 6),
    ("adder", 3),
)
INTEROP_SMOKE_CASES: tuple[tuple[str, int], ...] = (
    ("qft", 4),
    ("adder", 2),
)

INTEROP_TOPOLOGIES: tuple[str, ...] = ("line", "grid_2d")
INTEROP_SMOKE_TOPOLOGIES: tuple[str, ...] = ("line",)

STRATEGIES: tuple[str, ...] = ("naive", "ternary")

__all__ = [
    "INTEROP_CASES",
    "INTEROP_TOPOLOGIES",
    "STRATEGIES",
    "compile_strategy",
]


def compile_strategy(circuit: Circuit, strategy: str) -> Circuit:
    """Compile a qubit circuit for the qutrit device under one strategy."""
    if strategy == "naive":
        return lift_circuit(DecomposeToQubitBasis().transform(circuit))
    if strategy == "ternary":
        return DecomposeToWidth2().transform(lift_circuit(circuit))
    raise ValueError(
        f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
    )
