"""Generalized Toffoli constructions: the paper's qutrit tree and baselines."""

from .spec import ConstructionResult, GeneralizedToffoli
from .qutrit_tree import build_qutrit_tree
from .dirty_ancilla import (
    build_one_dirty_ancilla,
    mcx_dirty_ladder,
    mcx_one_dirty,
)
from .ancilla_free import build_ancilla_free_cascade
from .he_tree import build_he_tree
from .wang_chain import build_wang_chain
from .lanyon_target import build_lanyon_target
from .registry import CONSTRUCTIONS, ConstructionInfo, build_toffoli
from .verification import verify_classical_looped, verify_construction

__all__ = [
    "verify_classical_looped",
    "verify_construction",
    "GeneralizedToffoli",
    "ConstructionResult",
    "build_qutrit_tree",
    "build_one_dirty_ancilla",
    "build_ancilla_free_cascade",
    "build_he_tree",
    "build_wang_chain",
    "build_lanyon_target",
    "mcx_dirty_ladder",
    "mcx_one_dirty",
    "CONSTRUCTIONS",
    "ConstructionInfo",
    "build_toffoli",
]
