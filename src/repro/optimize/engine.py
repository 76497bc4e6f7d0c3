"""The rewrite engine: ordered passes, fixpoint iteration, cost gating.

One engine sweep runs the configured passes in order; a pass's output is
priced by the cost model and kept only if it strictly improves the
score, so every accepted rewrite makes monotone progress and the
fixpoint loop terminates.  Sweeps repeat until a full sweep accepts
nothing (or ``max_iterations`` is hit) — cancellation exposes fusions,
fusion exposes cancellations, packing exposes both.  A pass whose input
is the same circuit object it last ran on is not re-run: nothing was
accepted in between, so its previous (rejected or empty) stats are
recorded again and the report reads as if it had run.

``verify`` wires in the equivalence oracle (:mod:`repro.verify`):
``"strict"`` checks the optimized circuit against the original and
raises :class:`~repro.exceptions.VerificationError` on a mismatch or
when no oracle reaches the pair, ``"auto"`` checks when an oracle
reaches it and records a skip otherwise, ``False`` trusts the passes
(they are property-tested against the same oracle across the Toffoli
catalog).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..circuits.circuit import Circuit
from ..exceptions import OptimizationError
from ..verify import assert_equivalent, oracle_for
from .cost import CircuitCost, CostModel, resolve_cost_model
from .passes import PassStats, RewritePass, resolve_passes

#: Fixpoint ceiling: every accepted sweep strictly lowers the score, so
#: this is a safety net, not a tuning knob.
DEFAULT_MAX_ITERATIONS = 20


@dataclass
class OptimizationReport:
    """Everything one engine run did, for stats tables and bench rows."""

    cost_before: CircuitCost
    cost_after: CircuitCost
    iterations: int = 0
    pass_stats: list[PassStats] = field(default_factory=list)
    #: Oracle used by verification: "classical", "statevector",
    #: "skipped" (auto mode, no feasible oracle) or None (verify off).
    verified: "str | None" = None

    @property
    def gates_removed(self) -> int:
        return self.cost_before.total_gates - self.cost_after.total_gates

    @property
    def depth_removed(self) -> int:
        return self.cost_before.depth - self.cost_after.depth

    def totals(self) -> "dict[str, PassStats]":
        """Per-pass stats summed across iterations, in pass order."""
        summary: dict[str, PassStats] = {}
        for stats in self.pass_stats:
            if stats.name in summary:
                summary[stats.name] = summary[stats.name].merged(stats)
            else:
                summary[stats.name] = stats
        return summary

    def to_dict(self) -> dict:
        return {
            "cost_before": self.cost_before.to_dict(),
            "cost_after": self.cost_after.to_dict(),
            "iterations": self.iterations,
            "verified": self.verified,
            "passes": [stats.to_dict() for stats in self.pass_stats],
        }


class RewriteEngine:
    """Runs rewrite passes to fixpoint under a cost model."""

    def __init__(
        self,
        passes: "Sequence[str | RewritePass] | None" = None,
        cost_model: "str | CostModel | None" = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        verify: "bool | str" = False,
    ) -> None:
        self.passes = resolve_passes(passes)
        self.cost_model = resolve_cost_model(cost_model)
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.max_iterations = max_iterations
        if verify is True:
            verify = "strict"
        if verify not in (False, "strict", "auto"):
            raise ValueError(
                f"verify must be False, 'strict' or 'auto', got {verify!r}"
            )
        self.verify = verify

    def run(self, circuit: Circuit) -> tuple[Circuit, OptimizationReport]:
        """Optimize ``circuit``; returns (new circuit, report).

        The input circuit is never mutated; with nothing to improve the
        original object comes back with an all-zero report.
        """
        cost_before = self.cost_model.cost(circuit)
        report = OptimizationReport(
            cost_before=cost_before, cost_after=cost_before
        )
        current = circuit
        current_cost = cost_before
        #: pass slot -> (the circuit it last ran on, that run's stats).
        last_run: dict[int, tuple[Circuit, PassStats]] = {}
        for _ in range(self.max_iterations):
            report.iterations += 1
            improved = False
            for slot, rewrite_pass in enumerate(self.passes):
                previous = last_run.get(slot)
                if previous is not None and previous[0] is current:
                    # Nothing was accepted since this pass last ran, so
                    # (passes being deterministic) it would repeat the
                    # same rejected or empty rewrite: reuse its stats.
                    report.pass_stats.append(replace(previous[1]))
                    continue
                candidate, stats = rewrite_pass.run(current)
                last_run[slot] = (current, stats)
                if stats.applications:
                    candidate_cost = self.cost_model.cost(candidate)
                    if candidate_cost.score() < current_cost.score():
                        stats.accepted = True
                        current = candidate
                        current_cost = candidate_cost
                        improved = True
                report.pass_stats.append(stats)
            if not improved:
                break
        report.cost_after = current_cost
        if self.verify and current is not circuit:
            if self.verify == "auto" and (
                oracle_for(current, circuit) is None
            ):
                report.verified = "skipped"
            else:
                report.verified = assert_equivalent(
                    current, circuit, context="optimization"
                ).oracle
        return current, report

    def optimize(self, circuit: Circuit) -> Circuit:
        """Convenience: :meth:`run` without the report."""
        optimized, _ = self.run(circuit)
        return optimized

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ",".join(p.name for p in self.passes)
        return (
            f"<RewriteEngine passes=[{names}] "
            f"cost={self.cost_model.name}>"
        )


def optimize_circuit(
    circuit: Circuit,
    passes: "Sequence[str | RewritePass] | None" = None,
    cost_model: "str | CostModel | None" = None,
    verify: "bool | str" = False,
) -> tuple[Circuit, OptimizationReport]:
    """One-shot functional form of :class:`RewriteEngine`."""
    engine = RewriteEngine(
        passes=passes, cost_model=cost_model, verify=verify
    )
    return engine.run(circuit)


def resolve_engine(
    spec: "bool | str | Sequence[str | RewritePass] | RewriteEngine | None",
) -> "RewriteEngine | None":
    """Resolve the facade/CLI ``optimize=`` knob to an engine (or None).

    ``True`` means the default engine, a string is a comma-separated
    pass list (``"cancel-inverses,fuse-phases"``), a sequence names the
    passes directly, and an engine instance passes through.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return RewriteEngine()
    if isinstance(spec, RewriteEngine):
        return spec
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
        return RewriteEngine(passes=names or None)
    if isinstance(spec, Sequence):
        return RewriteEngine(passes=list(spec))
    raise TypeError(
        f"optimize must be a bool, pass list, RewriteEngine or None, "
        f"got {type(spec).__name__}"
    )


__all__ = [
    "OptimizationError",
    "OptimizationReport",
    "RewriteEngine",
    "optimize_circuit",
    "resolve_engine",
]
