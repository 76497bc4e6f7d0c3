"""Circuit optimizer: verified rewrite passes over Circuit IR v2.

The subsystem ROADMAP item 2 names: a :class:`RewriteEngine` running
ordered, fixpoint-iterated passes — adjacent-inverse cancellation,
diagonal/phase fusion (after arXiv:2204.13681), commutation-aware depth
packing — gated by a :class:`CostModel` (qutrit Clifford+T-aware by
default, after arXiv:2204.00552) and verified against the equivalence
oracle in :mod:`repro.verify`.  Pipeline integration lives in
:mod:`repro.execution` (``OptimizePass`` stages, ``*-opt`` named
pipelines, ``execute(optimize=...)``); the CLI surface is
``python -m repro optimize``.
"""

from .commutation import (
    clear_commutation_cache,
    commutes_into,
    operations_commute,
)
from .cost import (
    COST_MODELS,
    CircuitCost,
    CostModel,
    GateCountCostModel,
    QutritCliffordTCostModel,
    resolve_cost_model,
)
from .engine import (
    DEFAULT_MAX_ITERATIONS,
    OptimizationReport,
    RewriteEngine,
    optimize_circuit,
    resolve_engine,
)
from .passes import (
    DEFAULT_PASS_NAMES,
    PASS_TYPES,
    CancelAdjacentInverses,
    CommutationPacking,
    FuseDiagonalGates,
    PassStats,
    RewritePass,
    is_identity_gate,
    is_inverse_pair,
    resolve_passes,
)
from ..exceptions import OptimizationError

__all__ = [
    "CancelAdjacentInverses",
    "CircuitCost",
    "CommutationPacking",
    "CostModel",
    "COST_MODELS",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_PASS_NAMES",
    "FuseDiagonalGates",
    "GateCountCostModel",
    "OptimizationError",
    "OptimizationReport",
    "PASS_TYPES",
    "PassStats",
    "QutritCliffordTCostModel",
    "RewriteEngine",
    "RewritePass",
    "clear_commutation_cache",
    "commutes_into",
    "is_identity_gate",
    "is_inverse_pair",
    "operations_commute",
    "optimize_circuit",
    "resolve_cost_model",
    "resolve_engine",
    "resolve_passes",
]
