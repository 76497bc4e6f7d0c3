"""Naive-lift vs temporary-ternary benchmark (the paper's Sec. V claim).

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

Both paths are equivalence-checked against the original qubit circuit
(:func:`repro.verify.assert_equivalent`) before routing, then routed
onto the topology zoo; records carry logical gate count / two-qudit
count / depth and routed swap count / depth.  All structural metrics are deterministic,
which is what the CI regression gate compares.
"""

from __future__ import annotations

import platform
import time

import numpy as np

from ..circuits.circuit import Circuit
from ..execution.passes import DecomposeToWidth2, RouteToTopology
from .qubitbasis import DecomposeToQubitBasis
from ..verify import assert_equivalent
from .transform import lift_circuit
from .workloads import build_workload

INTEROP_SCHEMA = "repro-bench-interop/v1"

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
    "INTEROP_SCHEMA",
    "INTEROP_CASES",
    "INTEROP_TOPOLOGIES",
    "STRATEGIES",
    "compile_strategy",
    "interop_record_key",
    "run_interop_bench",
    "render_interop_table",
    "check_interop_regression",
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


def _logical_metrics(circuit: Circuit) -> dict:
    two_qudit = sum(
        1 for op in circuit.all_operations() if op.gate.num_qudits >= 2
    )
    return {
        "gate_count": circuit.num_operations,
        "two_qudit_count": two_qudit,
        "depth": circuit.depth,
    }


def interop_record_key(record: dict) -> tuple:
    """The join key of one record (deterministic identity)."""
    return (
        record["workload"],
        record["size"],
        record["strategy"],
        record["topology_kind"],
    )


def run_interop_bench(smoke: bool = False) -> dict:
    """Run the interop sweep and return the JSON-ready report.

    Each (workload, strategy) pair compiles once — with the compiled
    circuit verified against the qubit original — then routes once per
    topology.
    """
    cases = INTEROP_SMOKE_CASES if smoke else INTEROP_CASES
    topologies = (
        INTEROP_SMOKE_TOPOLOGIES if smoke else INTEROP_TOPOLOGIES
    )
    records = []
    for workload, size in cases:
        original = build_workload(workload, n=size)
        for strategy in STRATEGIES:
            start = time.perf_counter()
            compiled = compile_strategy(original, strategy)
            compile_seconds = time.perf_counter() - start
            oracle = assert_equivalent(
                compiled,
                original,
                context=f"{strategy} lift of {workload}(n={size})",
            ).oracle
            logical = _logical_metrics(compiled)
            for kind in topologies:
                router = RouteToTopology(kind, router="lookahead")
                start = time.perf_counter()
                router.transform(compiled)
                route_seconds = time.perf_counter() - start
                meta = router.last_metadata
                records.append(
                    {
                        "workload": workload,
                        "size": size,
                        "strategy": strategy,
                        "topology_kind": kind,
                        "wires": len(compiled.all_qudits()),
                        **logical,
                        "swap_count": meta["swap_count"],
                        "routed_depth": meta["routed_depth"],
                        "verified": oracle,
                        "seconds": compile_seconds + route_seconds,
                    }
                )
    return {
        "schema": INTEROP_SCHEMA,
        "generated_by": "python -m repro bench --suite interop"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "records": records,
        "headline": _interop_headline(records),
    }


def _interop_headline(records: list[dict]) -> dict:
    """Per-cell naive-vs-ternary comparison — the acceptance claim is
    every ``ternary_beats_naive`` flag on gate count and depth."""
    by_key = {interop_record_key(r): r for r in records}
    cells = []
    for record in records:
        if record["strategy"] != "ternary":
            continue
        naive = by_key.get(
            (
                record["workload"],
                record["size"],
                "naive",
                record["topology_kind"],
            )
        )
        if naive is None:
            continue
        cells.append(
            {
                "workload": record["workload"],
                "size": record["size"],
                "topology_kind": record["topology_kind"],
                "naive_gates": naive["gate_count"],
                "ternary_gates": record["gate_count"],
                "naive_depth": naive["depth"],
                "ternary_depth": record["depth"],
                "naive_swaps": naive["swap_count"],
                "ternary_swaps": record["swap_count"],
                "ternary_beats_naive": (
                    record["gate_count"] < naive["gate_count"]
                    and record["depth"] < naive["depth"]
                ),
            }
        )
    return {"naive_vs_ternary": cells}


def render_interop_table(report: dict) -> str:
    """Human-readable summary of :func:`run_interop_bench` output."""
    lines = [
        f"interop bench ({'smoke' if report['smoke'] else 'full'})",
        "",
        f"{'workload':>8s} {'n':>2s} {'strategy':>8s} {'topology':>9s} "
        f"{'gates':>6s} {'2q':>5s} {'depth':>6s} {'swaps':>6s} "
        f"{'rdepth':>6s} {'oracle':>12s}",
    ]
    for r in report["records"]:
        lines.append(
            f"{r['workload']:>8s} {r['size']:2d} {r['strategy']:>8s} "
            f"{r['topology_kind']:>9s} {r['gate_count']:6d} "
            f"{r['two_qudit_count']:5d} {r['depth']:6d} "
            f"{r['swap_count']:6d} {r['routed_depth']:6d} "
            f"{r['verified']:>12s}"
        )
    lines.append("")
    lines.append("temporary ternary vs naive lift:")
    for cell in report["headline"]["naive_vs_ternary"]:
        verdict = "WIN" if cell["ternary_beats_naive"] else "tie/loss"
        lines.append(
            f"  {cell['workload']}(n={cell['size']}) on "
            f"{cell['topology_kind']}: gates "
            f"{cell['naive_gates']}->{cell['ternary_gates']}, depth "
            f"{cell['naive_depth']}->{cell['ternary_depth']}, swaps "
            f"{cell['naive_swaps']}->{cell['ternary_swaps']}  [{verdict}]"
        )
    return "\n".join(lines)


def check_interop_regression(
    committed: dict, fresh: dict, factor: float = 3.0
) -> list[str]:
    """Compare a fresh interop report against the committed baseline.

    Joins records on :func:`interop_record_key`; flags any structural
    metric that degraded by more than ``factor``, any row whose
    verification oracle disappeared, and any committed ternary win that
    no longer holds.  Returns failure messages (empty = pass).
    """
    baseline = {
        interop_record_key(r): r for r in committed["records"]
    }
    failures = []
    for record in fresh["records"]:
        base = baseline.get(interop_record_key(record))
        if base is None:
            continue
        label = (
            f"{record['workload']}(n={record['size']}) "
            f"{record['strategy']}/{record['topology_kind']}"
        )
        if not record.get("verified"):
            failures.append(f"{label}: row is no longer verified")
        for metric in (
            "gate_count", "two_qudit_count", "depth",
            "swap_count", "routed_depth",
        ):
            allowed = factor * max(base[metric], 1)
            if record[metric] > allowed:
                failures.append(
                    f"{label}: {metric} {record[metric]} exceeds "
                    f"{factor:g}x committed {base[metric]}"
                )
    committed_wins = {
        (c["workload"], c["size"], c["topology_kind"])
        for c in committed["headline"]["naive_vs_ternary"]
        if c["ternary_beats_naive"]
    }
    for cell in fresh["headline"]["naive_vs_ternary"]:
        key = (cell["workload"], cell["size"], cell["topology_kind"])
        if key in committed_wins and not cell["ternary_beats_naive"]:
            failures.append(
                f"{cell['workload']}(n={cell['size']}) on "
                f"{cell['topology_kind']}: temporary ternary no longer "
                "beats the naive lift"
            )
    return failures
