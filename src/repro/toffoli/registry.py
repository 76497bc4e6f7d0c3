"""Uniform access to every Generalized Toffoli construction (Table 1).

Each entry records the paper-facing metadata (benchmark label, expected
depth scaling, ancilla usage, qudit types) next to its builder so the
benchmarks can sweep all constructions generically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ancilla_free import build_ancilla_free_cascade
from .dirty_ancilla import build_one_dirty_ancilla
from .he_tree import build_he_tree
from .lanyon_target import build_lanyon_target
from .qutrit_tree import build_qutrit_tree
from .spec import ConstructionResult, GeneralizedToffoli
from .wang_chain import build_wang_chain


@dataclass(frozen=True)
class ConstructionInfo:
    """Registry record for one decomposition strategy."""

    name: str
    builder: Callable[[GeneralizedToffoli], ConstructionResult]
    paper_label: str
    depth_scaling: str
    ancilla: str
    qudit_types: str
    notes: str = ""


CONSTRUCTIONS: dict[str, ConstructionInfo] = {
    info.name: info
    for info in (
        ConstructionInfo(
            name="qutrit_tree",
            builder=build_qutrit_tree,
            paper_label="This work (QUTRIT)",
            depth_scaling="log N",
            ancilla="0",
            qudit_types="controls are qutrits",
            notes="Sec 4.2 binary tree; |2> stores partial conjunctions",
        ),
        ConstructionInfo(
            name="qubit_ancilla_free",
            builder=build_ancilla_free_cascade,
            paper_label="Gidney (QUBIT)",
            depth_scaling="N (paper); N^2 small-constant substitute here",
            ancilla="0",
            qudit_types="qubits",
            notes="substituted; see the repro.toffoli.ancilla_free docstring",
        ),
        ConstructionInfo(
            name="qubit_one_dirty",
            builder=build_one_dirty_ancilla,
            paper_label="Gidney + ancilla (QUBIT+ANCILLA)",
            depth_scaling="N",
            ancilla="1 borrowed",
            qudit_types="qubits",
            notes="four-way split over dirty Toffoli ladders",
        ),
        ConstructionInfo(
            name="he_tree",
            builder=build_he_tree,
            paper_label="He",
            depth_scaling="log N",
            ancilla="N-1 clean",
            qudit_types="qubits",
            notes="Toffoli AND-tree into clean ancilla",
        ),
        ConstructionInfo(
            name="wang_chain",
            builder=build_wang_chain,
            paper_label="Wang",
            depth_scaling="N",
            ancilla="0",
            qudit_types="controls are qutrits",
            notes="linear |2>-elevation chain",
        ),
        ConstructionInfo(
            name="lanyon_target",
            builder=build_lanyon_target,
            paper_label="Lanyon / Ralph",
            depth_scaling="N",
            ancilla="0",
            qudit_types="target is a d=2N+2 qudit",
            notes="shelving adaptation; see module docstring",
        ),
    )
}


def build_toffoli(
    name: str,
    num_controls: int,
    control_values: tuple[int, ...] | None = None,
    **kwargs,
) -> ConstructionResult:
    """Build a named construction for an ``num_controls``-controlled gate."""
    if name not in CONSTRUCTIONS:
        raise KeyError(
            f"unknown construction {name!r}; "
            f"choose from {sorted(CONSTRUCTIONS)}"
        )
    spec = GeneralizedToffoli(
        num_controls=num_controls,
        control_values=control_values or (),
    )
    return CONSTRUCTIONS[name].builder(spec, **kwargs)


def construction_circuit(name: str, num_controls: int, **kwargs):
    """The bare circuit of a named construction.

    Convenience for file-based workloads (``python -m repro circuit
    save``) and anywhere only the serializable circuit value is wanted,
    not the full :class:`ConstructionResult` bookkeeping.
    """
    return build_toffoli(name, num_controls, **kwargs).circuit
