"""Engine benchmarks: the paper's workloads, timed and logged.

``python -m repro bench --suite NAME`` runs one registered suite
(:data:`BENCH_SUITES`) and writes its report to ``BENCH_NAME.json``;
``--suite all`` runs every suite.  The committed copies seed the repo's
performance trajectory; CI re-runs the smoke variants (``--smoke``) on
every push.  The suites defined here (the first three together make
up the ``noise`` suite, ``BENCH_noise.json``):

* **density** — exact density-matrix evolution of a qutrit Generalized
  Toffoli under a noise preset, axis-local engine
  (:class:`~repro.sim.density.DensityMatrixSimulator`) vs the preserved
  v1 dense ``kron`` embedding
  (:class:`~repro.sim.dense_reference.DenseDensityMatrixSimulator`),
  with a parity check on the final operators;
* **trajectory** — the Figure 11 estimator, fused-moment engine
  (``batch_size=None``; the ``batched_*`` fields) vs the looped oracle
  (:func:`~repro.sim.fidelity.estimate_circuit_fidelity_looped`) on one
  circuit/model pair;
* **workloads** — Table 2/3 style fidelity estimates (circuit construction
  x noise model) through the default fused engine, so the JSON records
  both wall-clock and the physics numbers they produce;
* **verification** (``BENCH_verify.json``) — exhaustive classical
  verification, batched permutation-table engine
  (:func:`~repro.toffoli.verification.verify_construction`) vs the looped
  per-input reference, plus the paper's Sec. 6 headline workload: the
  width-14 exhaustive check (qutrit tree, N=13 controls, all 2^14
  classical inputs), timed end to end;
* **routing** (``BENCH_route.json``) — the Sec. VII connectivity study:
  construction x topology x width, each routed by the greedy v1
  baseline and the lookahead v2 engine
  (:class:`~repro.arch.router.LookaheadRouter`), recording SWAP counts,
  depth inflation, and the closed-form noise-model fidelity proxy.
  Structural numbers (swaps, depths) are deterministic, so CI's
  bench-regression step compares a fresh smoke run against the
  committed JSON (:func:`check_route_regression`);
* **optimizer** (``BENCH_opt.json``) — the rewrite engine
  (:class:`~repro.optimize.RewriteEngine`) over the Fig. 9/10
  constructions, logical and line-routed, recording gate/two-qudit/
  depth reductions per pass and the equivalence-oracle verdict.
  Reductions are deterministic, so CI gates on them the same way
  (:func:`check_opt_regression`); wall-clock is recorded, never gated;
* **state** (``BENCH_state.json``) — the statevector-v2 engine: the
  permutation fast path vs the preserved dense-kernel oracle on an
  undecomposed qutrit tree (timed, with an exactness check), the
  batched counts sampler vs the per-shot reference (timed, with exact
  agreement / determinism / chi-square invariants), and the complex64
  bulk mode vs complex128 (timed, against the documented parity
  bound).  The boolean invariants are deterministic and CI gates on
  them (:func:`check_state_regression`); speedups are recorded, never
  gated.

All suites are seeded and deterministic in their *results*; timings are
hardware-dependent (the JSON records the platform).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..interop.bench import (
    INTEROP_SCHEMA,
    check_interop_regression,
    interop_record_key,
    render_interop_table,
    run_interop_bench,
)
from ..noise.model import NoiseModel
from ..noise.presets import (
    BARE_QUTRIT,
    DRESSED_QUTRIT,
    SC,
    SC_T1_GATES,
    TI_QUBIT,
)
from ..resilience.chaos import (
    CHAOS_SCHEMA,
    check_chaos_regression,
    render_chaos_report,
    run_chaos_bench,
)
from ..service.loadgen import (
    SERVE_SCHEMA,
    check_serve_regression,
    render_serve_report,
    run_serve_bench,
)
from ..sim.dense_reference import DenseDensityMatrixSimulator
from ..sim.density import DensityMatrixSimulator
from ..sim.fidelity import (
    estimate_circuit_fidelity,
    estimate_circuit_fidelity_looped,
)
from ..sim.kernels import mixed_radix_weights
from ..sim.measurement import sample_counts, sample_state
from ..sim.state import StateVector
from ..sim.statevector import StateVectorSimulator
from ..toffoli.registry import build_toffoli, construction_circuit
from ..toffoli.verification import (
    verify_classical_looped,
    verify_construction,
)

__all__ = [
    "SCHEMA",
    "VERIFY_SCHEMA",
    "ROUTE_SCHEMA",
    "SERVE_SCHEMA",
    "CHAOS_SCHEMA",
    "OPT_SCHEMA",
    "STATE_SCHEMA",
    "INTEROP_SCHEMA",
    "run_bench",
    "run_verify_bench",
    "run_route_bench",
    "run_serve_bench",
    "run_chaos_bench",
    "run_opt_bench",
    "run_state_bench",
    "run_interop_bench",
    "render_report",
    "render_verify_report",
    "render_route_report",
    "render_serve_report",
    "render_chaos_report",
    "render_opt_report",
    "render_state_report",
    "render_interop_table",
    "check_route_regression",
    "check_serve_regression",
    "check_chaos_regression",
    "check_opt_regression",
    "check_state_regression",
    "check_interop_regression",
    "route_record_key",
    "opt_record_key",
    "state_record_key",
    "interop_record_key",
    "write_report",
    "BenchSuite",
    "BENCH_SUITES",
]

#: Schema tag written into the JSON, so later PRs can evolve the format.
SCHEMA = "repro-bench-noise/v1"

#: Schema tag of the verification report (``BENCH_verify.json``).
VERIFY_SCHEMA = "repro-bench-verify/v1"

#: Schema tag of the routing report (``BENCH_route.json``).
ROUTE_SCHEMA = "repro-bench-route/v1"

#: Schema tag of the optimizer report (``BENCH_opt.json``).
OPT_SCHEMA = "repro-bench-opt/v1"

#: Schema tag of the statevector report (``BENCH_state.json``).
STATE_SCHEMA = "repro-bench-state/v1"



def _best_of(repeats: int, task: Callable[[], object]) -> tuple[float, object]:
    """Minimum wall-clock over ``repeats`` runs (and the last result)."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = task()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_density(
    num_controls: int = 4,
    model: NoiseModel = SC,
    repeats: int = 2,
    construction: str = "qutrit_tree",
) -> dict:
    """Axis-local vs dense-``kron`` density evolution on one circuit.

    The default (``num_controls=4``) is the acceptance workload: a
    5-wire qutrit Generalized Toffoli, 243-dimensional Hilbert space.
    """
    circuit = construction_circuit(construction, num_controls)
    wires = circuit.all_qudits()
    initial = StateVector.zero(wires)
    new_sim = DensityMatrixSimulator(model)
    old_sim = DenseDensityMatrixSimulator(model)
    # Warm the kernel caches outside the timed region: steady-state cost
    # is what execute() users see across sweeps and repeated runs.
    new_sim.run(circuit, initial)
    new_seconds, rho_new = _best_of(
        repeats, lambda: new_sim.run(circuit, initial)
    )
    old_seconds, rho_old = _best_of(
        repeats, lambda: old_sim.run(circuit, initial)
    )
    max_diff = float(np.abs(rho_new.matrix - rho_old.matrix).max())
    return {
        "workload": f"{construction}(N={num_controls}) density evolution",
        "construction": construction,
        "num_controls": num_controls,
        "wires": len(wires),
        "hilbert_dim": int(np.prod([w.dimension for w in wires])),
        "noise_model": model.name,
        "operations": circuit.num_operations,
        "axis_local_seconds": new_seconds,
        "dense_kron_seconds": old_seconds,
        "speedup": old_seconds / new_seconds,
        "parity_max_abs_diff": max_diff,
    }


def bench_trajectory(
    num_controls: int = 4,
    model: NoiseModel = SC,
    trials: int = 200,
    seed: int = 2019,
    repeats: int = 1,
    construction: str = "qutrit_tree",
) -> dict:
    """Fused vs looped trajectory estimation on one circuit/model."""
    circuit = construction_circuit(construction, num_controls)

    batched_seconds, batched = _best_of(
        repeats,
        lambda: estimate_circuit_fidelity(
            circuit, model, trials=trials, seed=seed
        ),
    )
    looped_seconds, looped = _best_of(
        repeats,
        lambda: estimate_circuit_fidelity_looped(
            circuit, model, trials=trials, seed=seed
        ),
    )
    return {
        "workload": (
            f"{construction}(N={num_controls}) x {trials} trajectories"
        ),
        "construction": construction,
        "num_controls": num_controls,
        "noise_model": model.name,
        "trials": trials,
        "seed": seed,
        "batched_seconds": batched_seconds,
        "looped_seconds": looped_seconds,
        "speedup": looped_seconds / batched_seconds,
        "batched_mean_fidelity": batched.mean_fidelity,
        "looped_mean_fidelity": looped.mean_fidelity,
        # Agreement scale for the two engines' independent streams.
        "combined_two_sigma": batched.two_sigma + looped.two_sigma,
    }


#: Figure 11 / Tables 2-3 style pairs: construction x noise model.
WORKLOAD_PAIRS: tuple[tuple[str, NoiseModel], ...] = (
    ("qubit_ancilla_free", SC),
    ("qutrit_tree", SC),
    ("qutrit_tree", SC_T1_GATES),
    ("qutrit_tree", TI_QUBIT),
    ("qutrit_tree", BARE_QUTRIT),
    ("qutrit_tree", DRESSED_QUTRIT),
)


def bench_workloads(
    num_controls: int = 4,
    trials: int = 100,
    seed: int = 2019,
    pairs: tuple[tuple[str, NoiseModel], ...] = WORKLOAD_PAIRS,
) -> list[dict]:
    """Timed Table 2/3 style fidelity estimates on the fused engine."""
    records = []
    for construction, model in pairs:
        circuit = construction_circuit(construction, num_controls)
        start = time.perf_counter()
        estimate = estimate_circuit_fidelity(
            circuit, model, trials=trials, seed=seed,
            circuit_name=construction,
        )
        seconds = time.perf_counter() - start
        records.append(
            {
                "construction": construction,
                "num_controls": num_controls,
                "noise_model": model.name,
                "trials": trials,
                "seed": seed,
                "seconds": seconds,
                "mean_fidelity": estimate.mean_fidelity,
                "two_sigma": estimate.two_sigma,
                "mean_gate_errors": estimate.mean_gate_errors,
                "mean_idle_jumps": estimate.mean_idle_jumps,
            }
        )
    return records


def bench_verify_speedup(
    num_controls: int = 8,
    repeats: int = 3,
    construction: str = "qutrit_tree",
) -> dict:
    """Batched vs looped exhaustive classical verification of one circuit.

    The default (``num_controls=8``) is the acceptance workload: the
    undecomposed qutrit tree, 2^9 classical inputs, checked through the
    batched permutation-table engine and through the per-input looped
    reference.  Both paths are warmed once before timing (the lowering
    and permutation caches are process-wide steady state, exactly like
    the noise suites' kernel warmup).
    """
    result = build_toffoli(construction, num_controls, decompose=False)
    batched_count = verify_construction(result).inputs
    looped_count = verify_classical_looped(result)
    batched_seconds, _ = _best_of(
        repeats, lambda: verify_construction(result)
    )
    looped_seconds, _ = _best_of(
        repeats, lambda: verify_classical_looped(result)
    )
    return {
        "workload": (
            f"{construction}(N={num_controls}) exhaustive verification"
        ),
        "construction": construction,
        "num_controls": num_controls,
        "width": len(result.all_wires),
        "inputs": batched_count,
        "operations": result.circuit.num_operations,
        "batched_seconds": batched_seconds,
        "looped_seconds": looped_seconds,
        "speedup": looped_seconds / batched_seconds,
        "decisions_agree": batched_count == looped_count,
    }


def bench_verify_width14(
    num_controls: int = 13,
    construction: str = "qutrit_tree",
    repeats: int = 1,
) -> dict:
    """The paper's Sec. 6 headline: exhaustively verify a width-14 circuit.

    The qutrit tree at ``N=13`` controls spans 14 wires; all ``2^14``
    classical inputs run through the batched engine in one pass, and the
    wall-clock is recorded — the claim the paper makes ("all classical
    inputs up to width 14"), timed and committed.
    """
    result = build_toffoli(construction, num_controls, decompose=False)
    checked = verify_construction(result).inputs
    seconds, _ = _best_of(repeats, lambda: verify_construction(result))
    return {
        "workload": (
            f"{construction}(N={num_controls}) width-"
            f"{len(result.all_wires)} exhaustive check"
        ),
        "construction": construction,
        "num_controls": num_controls,
        "width": len(result.all_wires),
        "inputs": checked,
        "operations": result.circuit.num_operations,
        "seconds": seconds,
        "completed": True,
    }


def run_verify_bench(smoke: bool = False) -> dict:
    """Run the verification suite and return the JSON-ready report.

    ``smoke`` shrinks the workloads (5-control speedup pair, width-10
    exhaustive check) so CI finishes in well under a second; the full
    run is the acceptance pair: the N=8 speedup and the paper's
    width-14 (N=13) exhaustive check.
    """
    if smoke:
        speedup = bench_verify_speedup(num_controls=5, repeats=2)
        widest = bench_verify_width14(num_controls=9)
    else:
        speedup = bench_verify_speedup(num_controls=8, repeats=3)
        widest = bench_verify_width14(num_controls=13)
    return {
        "schema": VERIFY_SCHEMA,
        "generated_by": "python -m repro bench --suite verify"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "speedup": speedup,
        "width14": widest,
    }


def render_verify_report(report: dict) -> str:
    """Human-readable summary of :func:`run_verify_bench` output."""
    speedup = report["speedup"]
    widest = report["width14"]
    return "\n".join(
        [
            f"verification bench "
            f"({'smoke' if report['smoke'] else 'full'})",
            "",
            f"speedup    {speedup['workload']} "
            f"({speedup['inputs']} inputs):",
            f"  batched    {speedup['batched_seconds'] * 1000:8.2f} ms",
            f"  looped     {speedup['looped_seconds'] * 1000:8.2f} ms",
            f"  speedup    {speedup['speedup']:8.1f} x",
            "",
            f"exhaustive {widest['workload']}:",
            f"  {widest['inputs']} inputs x {widest['operations']} ops "
            f"in {widest['seconds'] * 1000:.1f} ms",
        ]
    )


# ----------------------------------------------------------------------
# Routing suite (BENCH_route.json)
# ----------------------------------------------------------------------

#: Topology zoo kinds swept by the routing suite (sized per circuit).
ROUTE_TOPOLOGIES: tuple[str, ...] = (
    "line",
    "grid_2d",
    "ring",
    "tree",
    "heavy_hex",
    "all_to_all",
)

#: Constructions swept: the paper's qutrit tree vs a qubit baseline.
ROUTE_CONSTRUCTIONS: tuple[str, ...] = ("qutrit_tree", "qubit_one_dirty")

#: Control counts of the full routing sweep (smoke keeps a prefix, so
#: smoke records always join against the committed full report).
ROUTE_WIDTHS: tuple[int, ...] = (4, 8, 12)
ROUTE_SMOKE_WIDTHS: tuple[int, ...] = (4, 8)


def bench_route_case(
    construction: str,
    num_controls: int,
    topology_kind: str,
    router: str,
    model: NoiseModel = SC,
    repeats: int = 1,
) -> dict:
    """Route one construction onto one sized topology; returns the record.

    The structural outputs (swap count, depths, overheads) are
    deterministic for a given library version — that is what the CI
    regression gate compares — while ``seconds`` records wall-clock.
    """
    from ..arch.metrics import routing_metrics
    from ..arch.router import resolve_router
    from ..arch.topology import sized_topology

    circuit = construction_circuit(construction, num_controls)
    wires = circuit.all_qudits()
    topology = sized_topology(topology_kind, len(wires))
    engine = resolve_router(router)
    seconds, routed = _best_of(
        repeats,
        lambda: engine.route(circuit, topology, wires=wires),
    )
    metrics = routing_metrics(circuit, routed, model)
    record = metrics.to_dict()
    record.update(
        {
            "construction": construction,
            "num_controls": num_controls,
            "wires": len(wires),
            "topology_kind": topology_kind,
            "topology": topology.name,
            "sites": topology.size,
            "noise_model": model.name,
            "seconds": seconds,
        }
    )
    return record


def route_record_key(record: dict) -> tuple:
    """The join key of one routing record (deterministic identity)."""
    return (
        record["construction"],
        record["num_controls"],
        record["topology_kind"],
        record["router"],
    )


def bench_route(
    constructions: tuple[str, ...] = ROUTE_CONSTRUCTIONS,
    topologies: tuple[str, ...] = ROUTE_TOPOLOGIES,
    widths: tuple[int, ...] = ROUTE_WIDTHS,
    model: NoiseModel = SC,
) -> list[dict]:
    """The full construction x topology x width x router sweep."""
    records = []
    for construction in constructions:
        for num_controls in widths:
            for kind in topologies:
                for router in ("greedy", "lookahead"):
                    records.append(
                        bench_route_case(
                            construction, num_controls, kind, router,
                            model=model,
                        )
                    )
    return records


def _route_headline(records: list[dict]) -> dict:
    """The acceptance claims, precomputed from the record list.

    * lookahead beats (or ties) greedy on swaps, per (construction,
      topology, width) pair — with the N>=8 qutrit-tree line/grid cells
      called out;
    * the qutrit tree's swap overhead stays flat across widths while
      the qubit baseline's grows (the Sec. VII trend).
    """
    by_key = {route_record_key(r): r for r in records}
    lookahead_wins = []
    for record in records:
        if record["router"] != "lookahead":
            continue
        greedy = by_key.get(
            (
                record["construction"],
                record["num_controls"],
                record["topology_kind"],
                "greedy",
            )
        )
        if greedy is None:
            continue
        lookahead_wins.append(
            {
                "construction": record["construction"],
                "num_controls": record["num_controls"],
                "topology_kind": record["topology_kind"],
                "greedy_swaps": greedy["swap_count"],
                "lookahead_swaps": record["swap_count"],
                "beats_greedy": (
                    record["swap_count"] <= greedy["swap_count"]
                ),
            }
        )

    def overhead_growth(construction: str, kind: str) -> float | None:
        per_width = sorted(
            (
                r["num_controls"], r["swap_overhead"]
            )
            for r in records
            if r["construction"] == construction
            and r["topology_kind"] == kind
            and r["router"] == "lookahead"
        )
        if len(per_width) < 2:
            return None
        first, last = per_width[0][1], per_width[-1][1]
        return last / first if first else None

    constructions = sorted({r["construction"] for r in records})
    kinds = sorted({r["topology_kind"] for r in records})
    return {
        "lookahead_vs_greedy": lookahead_wins,
        "swap_overhead_growth": {
            construction: {
                kind: overhead_growth(construction, kind) for kind in kinds
            }
            for construction in constructions
        },
    }


def run_route_bench(smoke: bool = False) -> dict:
    """Run the routing suite and return the JSON-ready report.

    ``smoke`` keeps the width prefix (:data:`ROUTE_SMOKE_WIDTHS`) so CI
    finishes fast while every smoke record still joins against the
    committed full report for the regression gate.
    """
    widths = ROUTE_SMOKE_WIDTHS if smoke else ROUTE_WIDTHS
    records = bench_route(widths=widths)
    return {
        "schema": ROUTE_SCHEMA,
        "generated_by": "python -m repro bench --suite route"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "records": records,
        "headline": _route_headline(records),
    }


def render_route_report(report: dict) -> str:
    """Human-readable summary of :func:`run_route_bench` output."""
    lines = [
        f"routing bench ({'smoke' if report['smoke'] else 'full'})",
        "",
        f"{'construction':>18s} {'N':>3s} {'topology':>16s} "
        f"{'router':>9s} {'swaps':>6s} {'depth':>6s} {'overhead':>8s} "
        f"{'fid~':>7s}",
    ]
    for record in report["records"]:
        proxy = record.get("fidelity_proxy")
        lines.append(
            f"{record['construction']:>18s} {record['num_controls']:3d} "
            f"{record['topology']:>16s} {record['router']:>9s} "
            f"{record['swap_count']:6d} {record['routed_depth']:6d} "
            f"{record['depth_overhead']:8.2f} "
            + (f"{proxy:7.3f}" if proxy is not None else "      -")
        )
    growth = report["headline"]["swap_overhead_growth"]
    lines.append("")
    lines.append("swap-overhead growth (lookahead, widest/narrowest):")
    for construction, kinds in growth.items():
        cells = ", ".join(
            f"{kind}={value:.1f}x" if value is not None else f"{kind}=-"
            for kind, value in kinds.items()
        )
        lines.append(f"  {construction:>18s}: {cells}")
    return "\n".join(lines)


def check_route_regression(
    committed: dict, fresh: dict, factor: float = 3.0
) -> list[str]:
    """Compare a fresh routing report against the committed baseline.

    Joins records on :func:`route_record_key` and flags any case whose
    deterministic structural metrics (``swap_count``, ``routed_depth``)
    degraded by more than ``factor`` — the CI bench-regression gate.
    Records present on only one side are skipped (the smoke sweep is a
    width-prefix subset of the committed full sweep).  Returns the list
    of failure messages (empty = pass).
    """
    baseline = {route_record_key(r): r for r in committed["records"]}
    failures = []
    for record in fresh["records"]:
        base = baseline.get(route_record_key(record))
        if base is None:
            continue
        for metric in ("swap_count", "routed_depth"):
            allowed = factor * max(base[metric], 1)
            if record[metric] > allowed:
                failures.append(
                    f"{record['construction']} N={record['num_controls']} "
                    f"{record['topology_kind']}/{record['router']}: "
                    f"{metric} {record[metric]} exceeds {factor:g}x "
                    f"committed {base[metric]}"
                )
    return failures


#: Optimizer sweep: the Figure 9/10 constructions with structure the
#: rewrite passes can act on, plus the paper's tight qutrit circuits
#: (which must come back *unchanged* at the logical stage — also a
#: claim worth pinning).
OPT_CONSTRUCTIONS: tuple[str, ...] = (
    "qutrit_tree",
    "he_tree",
    "qubit_one_dirty",
    "qubit_ancilla_free",
)

#: Control counts of the optimizer sweep (smoke keeps a prefix, so
#: smoke records always join against the committed full report).
OPT_WIDTHS: tuple[int, ...] = (3, 5, 7)
OPT_SMOKE_WIDTHS: tuple[int, ...] = (3, 5)

#: Optimizer stages benchmarked: the logical circuit as built, and the
#: same circuit after lookahead routing onto a sized line (the worst
#: zoo topology for these circuits, hence the richest SWAP structure).
OPT_STAGES: tuple[str, ...] = ("logical", "routed")


def bench_opt_case(
    construction: str, num_controls: int, stage: str
) -> dict:
    """Optimize one construction at one stage; returns the record.

    All structural outputs (gate/depth deltas, per-pass counts, the
    oracle used) are deterministic for a given library version — that
    is what the CI regression gate compares — while ``seconds`` records
    wall-clock.  Verification runs in ``"auto"`` mode: every case whose
    joint space fits an oracle is checked end to end, larger ones
    record ``"skipped"``.
    """
    from ..arch.router import resolve_router
    from ..arch.topology import sized_topology
    from ..optimize import RewriteEngine, clear_commutation_cache

    circuit = construction_circuit(construction, num_controls)
    if stage == "routed":
        wires = circuit.all_qudits()
        topology = sized_topology("line", len(wires))
        circuit = resolve_router("lookahead").route(
            circuit, topology, wires=wires
        ).circuit
    elif stage != "logical":
        raise ValueError(f"unknown optimizer bench stage {stage!r}")

    clear_commutation_cache()
    engine = RewriteEngine(verify="auto")
    seconds, outcome = _best_of(1, lambda: engine.run(circuit))
    _, report = outcome
    passes = {
        name: {
            "applications": stats.applications,
            "gates_removed": stats.gates_removed,
            "gates_fused": stats.gates_fused,
            "accepted": stats.accepted,
        }
        for name, stats in report.totals().items()
    }
    return {
        "construction": construction,
        "num_controls": num_controls,
        "stage": stage,
        "gates_before": report.cost_before.total_gates,
        "gates_after": report.cost_after.total_gates,
        "two_qudit_before": report.cost_before.two_qudit_gates,
        "two_qudit_after": report.cost_after.two_qudit_gates,
        "depth_before": report.cost_before.depth,
        "depth_after": report.cost_after.depth,
        "gates_removed": report.gates_removed,
        "depth_removed": report.depth_removed,
        "iterations": report.iterations,
        "verified": report.verified,
        "passes": passes,
        "seconds": seconds,
    }


def opt_record_key(record: dict) -> tuple:
    """The join key of one optimizer record (deterministic identity)."""
    return (
        record["construction"], record["num_controls"], record["stage"]
    )


def bench_opt(
    constructions: tuple[str, ...] = OPT_CONSTRUCTIONS,
    widths: tuple[int, ...] = OPT_WIDTHS,
    stages: tuple[str, ...] = OPT_STAGES,
) -> list[dict]:
    """The full construction x width x stage optimizer sweep."""
    return [
        bench_opt_case(construction, num_controls, stage)
        for construction in constructions
        for num_controls in widths
        for stage in stages
    ]


def _opt_headline(records: list[dict]) -> dict:
    """The acceptance claims, precomputed from the record list.

    For every rewrite pass: the cases where it was accepted (it
    strictly improved the cost score on that circuit), so the committed
    JSON proves each pass earns its keep on at least one Figure 9/10
    construction; plus how many cases the equivalence oracles covered.
    """
    pass_wins: dict[str, list[dict]] = {}
    for record in records:
        for name, stats in record["passes"].items():
            if not stats["accepted"]:
                continue
            pass_wins.setdefault(name, []).append(
                {
                    "construction": record["construction"],
                    "num_controls": record["num_controls"],
                    "stage": record["stage"],
                    "gates_removed": record["gates_removed"],
                    "depth_removed": record["depth_removed"],
                }
            )
    verified = [r for r in records if r["verified"] in (
        "classical", "statevector"
    )]
    return {
        "pass_wins": pass_wins,
        "cases": len(records),
        "cases_verified": len(verified),
        "total_gates_removed": sum(r["gates_removed"] for r in records),
        "total_depth_removed": sum(r["depth_removed"] for r in records),
    }


def run_opt_bench(smoke: bool = False) -> dict:
    """Run the optimizer suite and return the JSON-ready report.

    ``smoke`` keeps the width prefix (:data:`OPT_SMOKE_WIDTHS`) so CI
    finishes fast while every smoke record still joins against the
    committed full report for the regression gate.
    """
    widths = OPT_SMOKE_WIDTHS if smoke else OPT_WIDTHS
    records = bench_opt(widths=widths)
    return {
        "schema": OPT_SCHEMA,
        "generated_by": "python -m repro bench --suite opt"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "records": records,
        "headline": _opt_headline(records),
    }


def render_opt_report(report: dict) -> str:
    """Human-readable summary of :func:`run_opt_bench` output."""
    lines = [
        f"optimizer bench ({'smoke' if report['smoke'] else 'full'})",
        "",
        f"{'construction':>18s} {'N':>3s} {'stage':>8s} "
        f"{'gates':>11s} {'2q':>9s} {'depth':>11s} {'oracle':>12s}",
    ]
    for record in report["records"]:
        lines.append(
            f"{record['construction']:>18s} {record['num_controls']:3d} "
            f"{record['stage']:>8s} "
            f"{record['gates_before']:5d}>{record['gates_after']:<5d} "
            f"{record['two_qudit_before']:4d}>{record['two_qudit_after']:<4d} "
            f"{record['depth_before']:5d}>{record['depth_after']:<5d} "
            f"{record['verified'] or '-':>12s}"
        )
    headline = report["headline"]
    lines.append("")
    lines.append(
        f"totals: {headline['total_gates_removed']} gates and "
        f"{headline['total_depth_removed']} depth removed across "
        f"{headline['cases']} cases "
        f"({headline['cases_verified']} oracle-verified)"
    )
    lines.append("pass wins (cases where the pass improved the score):")
    for name, wins in headline["pass_wins"].items():
        cells = ", ".join(
            f"{w['construction']}/N={w['num_controls']}/{w['stage']}"
            for w in wins[:4]
        )
        more = f" (+{len(wins) - 4} more)" if len(wins) > 4 else ""
        lines.append(f"  {name:>16s}: {cells}{more}")
    return "\n".join(lines)


def check_opt_regression(committed: dict, fresh: dict) -> list[str]:
    """Compare a fresh optimizer report against the committed baseline.

    Joins records on :func:`opt_record_key` and flags any case whose
    deterministic reductions shrank below the committed numbers
    (``gates_removed`` / ``depth_removed``), or whose equivalence
    verification regressed from an oracle to skipped/absent — the CI
    bench-regression gate.  Wall-clock is never compared.  Records
    present on only one side are skipped (the smoke sweep is a
    width-prefix subset of the committed full sweep).  Returns the list
    of failure messages (empty = pass).
    """
    baseline = {opt_record_key(r): r for r in committed["records"]}
    failures = []
    for record in fresh["records"]:
        base = baseline.get(opt_record_key(record))
        if base is None:
            continue
        label = (
            f"{record['construction']} N={record['num_controls']} "
            f"{record['stage']}"
        )
        for metric in ("gates_removed", "depth_removed"):
            if record[metric] < base[metric]:
                failures.append(
                    f"{label}: {metric} {record[metric]} below "
                    f"committed {base[metric]}"
                )
        oracles = ("classical", "statevector")
        if base["verified"] in oracles and record["verified"] not in oracles:
            failures.append(
                f"{label}: equivalence verification regressed from "
                f"{base['verified']} to {record['verified']}"
            )
    return failures


# ----------------------------------------------------------------------
# Statevector suite (BENCH_state.json)
# ----------------------------------------------------------------------


def _ghz_circuit(width: int):
    """H + CNOT chain over ``width`` qubits — the sampling workload."""
    from ..circuits.circuit import Circuit
    from ..gates import CNOT, H
    from ..qudits import qubits

    wires = qubits(width)
    operations = [H.on(wires[0])]
    operations.extend(
        CNOT.on(wires[k], wires[k + 1]) for k in range(width - 1)
    )
    return Circuit(operations)


def bench_state_fastpath(
    num_controls: int = 10,
    repeats: int = 3,
    construction: str = "qutrit_tree",
    seed: int = 20190608,
) -> dict:
    """Permutation fast path vs the dense-kernel oracle on one circuit.

    The default (``num_controls=10``) is the acceptance workload: the
    undecomposed qutrit tree — every gate a 27x27 three-wire basis
    permutation — applied to a Haar-random state.  The fast path moves
    amplitudes by one table gather per gate; the oracle pays the full
    tensordot.  Both final states must agree *exactly* (a permutation
    contraction multiplies by exact ones and zeros), which is the gated
    invariant; the speedup is recorded, never gated.
    """
    result = build_toffoli(construction, num_controls, decompose=False)
    circuit = result.circuit
    wires = circuit.all_qudits()
    initial = StateVector.random(wires, np.random.default_rng(seed))
    fast_sim = StateVectorSimulator()
    dense_sim = StateVectorSimulator(permutation_fast_path=False)
    # Warm the table and kernel caches outside the timed region.
    fast_state = fast_sim.run(circuit, initial)
    dense_state = dense_sim.run(circuit, initial)
    parity = float(np.abs(fast_state.vector - dense_state.vector).max())
    fast_seconds, _ = _best_of(
        repeats, lambda: fast_sim.run(circuit, initial)
    )
    dense_seconds, _ = _best_of(
        repeats, lambda: dense_sim.run(circuit, initial)
    )
    return {
        "case": "fastpath",
        "workload": (
            f"{construction}(N={num_controls}) state-vector evolution"
        ),
        "construction": construction,
        "num_controls": num_controls,
        "wires": len(wires),
        "hilbert_dim": int(np.prod([w.dimension for w in wires])),
        "operations": circuit.num_operations,
        "seed": seed,
        "fast_seconds": fast_seconds,
        "dense_seconds": dense_seconds,
        "speedup": dense_seconds / fast_seconds,
        "parity_max_abs_diff": parity,
        "invariants": {"fastpath_parity_exact": bool(parity <= 1e-12)},
    }


def bench_state_sampling(
    width: int = 12,
    shots: int = 500_000,
    repeats: int = 3,
    seed: int = 20190608,
) -> dict:
    """Batched counts sampling vs the per-shot reference on a GHZ state.

    One state, two surfaces: :func:`~repro.sim.measurement.sample_counts`
    (chunked draws, unique-merge, no sample array) against
    :func:`~repro.sim.measurement.sample_state` followed by the
    vectorized histogram.  Gated invariants: the two agree exactly at
    one seed, counts are batch-size independent and re-run
    deterministic, and a chi-square GOF against the exact probabilities
    passes (all deterministic for the fixed seed).  Speedup recorded,
    never gated.
    """
    circuit = _ghz_circuit(width)
    state = StateVectorSimulator().run(circuit)

    batched = sample_counts(state, shots, rng=seed)
    looped = sample_state(state, shots, rng=seed)
    rebatched = sample_counts(
        state, shots, rng=seed, batch_size=max(1, shots // 7)
    )
    counts = batched.counts()
    agree = counts == looped.counts()
    batch_invariant = counts == rebatched.counts()
    deterministic = counts == sample_counts(state, shots, rng=seed).counts()

    # Chi-square GOF against the exact |amplitude|^2 distribution.
    # Deterministic for the fixed seed; critical value hardcoded
    # (alpha=0.01) because CI has no scipy.
    probabilities = np.abs(state.vector) ** 2
    expected = probabilities * shots
    support = expected > 0
    observed = np.zeros(probabilities.size, dtype=np.int64)
    dims = [w.dimension for w in state.wires]
    weights = mixed_radix_weights(dims)
    for outcome, count in counts.items():
        observed[int(np.dot(outcome, weights))] = count
    impossible = int(observed[~support].sum())
    statistic = float(
        (((observed[support] - expected[support]) ** 2)
         / expected[support]).sum()
    )
    dof = int(support.sum()) - 1
    critical = _chi2_critical_001.get(dof, float(dof + 4 * np.sqrt(dof)))
    chi_square_pass = impossible == 0 and statistic <= critical

    batched_seconds, _ = _best_of(
        repeats, lambda: sample_counts(state, shots, rng=seed)
    )
    looped_seconds, _ = _best_of(
        repeats, lambda: sample_state(state, shots, rng=seed).counts()
    )
    return {
        "case": "sampling",
        "workload": f"GHZ({width}) x {shots} shots",
        "width": width,
        "shots": shots,
        "seed": seed,
        "distinct_outcomes": len(counts),
        "batched_seconds": batched_seconds,
        "looped_seconds": looped_seconds,
        "speedup": looped_seconds / batched_seconds,
        "chi_square_statistic": statistic,
        "chi_square_dof": dof,
        "chi_square_critical": critical,
        "invariants": {
            "batched_equals_looped": bool(agree),
            "batch_size_invariant": bool(batch_invariant),
            "seed_deterministic": bool(deterministic),
            "chi_square_pass": bool(chi_square_pass),
        },
    }


#: chi-square critical values at alpha = 0.01 (no scipy in CI).
_chi2_critical_001 = {
    1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086,
    6: 16.812, 7: 18.475, 8: 20.090, 9: 21.666, 10: 23.209,
}


def bench_state_dtype(
    num_controls: int = 7,
    repeats: int = 3,
    construction: str = "qubit_ancilla_free",
    seed: int = 20190608,
) -> dict:
    """complex64 bulk mode vs complex128 on a dense-gate circuit.

    The qubit ancilla-free construction decomposes into H/T/CNOT —
    plenty of genuinely dense kernels — so this times the per-precision
    cached contraction, not the (rounding-free) permutation gather.
    The gated invariant is the documented parity bound of
    docs/SIMULATORS.md: ``max |psi64 - psi128| <= operations *
    sqrt(hilbert_dim) * 1e-7``.  Speedup recorded, never gated.
    """
    circuit = construction_circuit(construction, num_controls)
    wires = circuit.all_qudits()
    initial = StateVector.random(wires, np.random.default_rng(seed))
    sim128 = StateVectorSimulator()
    sim64 = StateVectorSimulator(dtype=np.complex64)
    state128 = sim128.run(circuit, initial)
    state64 = sim64.run(circuit, initial)
    max_diff = float(
        np.abs(
            state64.vector.astype(np.complex128) - state128.vector
        ).max()
    )
    hilbert_dim = int(np.prod([w.dimension for w in wires]))
    bound = circuit.num_operations * np.sqrt(hilbert_dim) * 1e-7
    seconds128, _ = _best_of(repeats, lambda: sim128.run(circuit, initial))
    seconds64, _ = _best_of(repeats, lambda: sim64.run(circuit, initial))
    return {
        "case": "dtype",
        "workload": (
            f"{construction}(N={num_controls}) complex64 vs complex128"
        ),
        "construction": construction,
        "num_controls": num_controls,
        "wires": len(wires),
        "hilbert_dim": hilbert_dim,
        "operations": circuit.num_operations,
        "seed": seed,
        "complex128_seconds": seconds128,
        "complex64_seconds": seconds64,
        "speedup": seconds128 / seconds64,
        "max_abs_diff": max_diff,
        "documented_bound": float(bound),
        "invariants": {"within_documented_bound": bool(max_diff <= bound)},
    }


def state_record_key(record: dict) -> str:
    """The join key of one statevector record (the case name)."""
    return record["case"]


def run_state_bench(smoke: bool = False) -> dict:
    """Run the statevector suite and return the JSON-ready report.

    ``smoke`` shrinks every case (narrower circuits, fewer shots,
    single timing repeat) so CI finishes in a couple of seconds; the
    record *cases* are the same, so the smoke run always joins against
    the committed full report for the invariant gate.
    """
    if smoke:
        records = [
            bench_state_fastpath(num_controls=6, repeats=1),
            bench_state_sampling(width=8, shots=20_000, repeats=1),
            bench_state_dtype(num_controls=5, repeats=1),
        ]
    else:
        records = [
            bench_state_fastpath(num_controls=10, repeats=3),
            bench_state_sampling(width=12, shots=500_000, repeats=3),
            bench_state_dtype(num_controls=7, repeats=3),
        ]
    return {
        "schema": STATE_SCHEMA,
        "generated_by": "python -m repro bench --suite state"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "records": records,
    }


def render_state_report(report: dict) -> str:
    """Human-readable summary of :func:`run_state_bench` output."""
    by_case = {state_record_key(r): r for r in report["records"]}
    fastpath = by_case["fastpath"]
    sampling = by_case["sampling"]
    dtype = by_case["dtype"]
    lines = [
        f"statevector bench ({'smoke' if report['smoke'] else 'full'})",
        "",
        f"fastpath  {fastpath['workload']} "
        f"({fastpath['operations']} ops, dim {fastpath['hilbert_dim']}):",
        f"  fast       {fastpath['fast_seconds'] * 1000:8.1f} ms",
        f"  dense      {fastpath['dense_seconds'] * 1000:8.1f} ms",
        f"  speedup    {fastpath['speedup']:8.1f} x   "
        f"(parity {fastpath['parity_max_abs_diff']:.1e})",
        "",
        f"sampling  {sampling['workload']}:",
        f"  batched    {sampling['batched_seconds'] * 1000:8.1f} ms",
        f"  looped     {sampling['looped_seconds'] * 1000:8.1f} ms",
        f"  speedup    {sampling['speedup']:8.1f} x   "
        f"(chi2 {sampling['chi_square_statistic']:.2f} <= "
        f"{sampling['chi_square_critical']:.2f})",
        "",
        f"dtype     {dtype['workload']} "
        f"({dtype['operations']} ops, dim {dtype['hilbert_dim']}):",
        f"  complex128 {dtype['complex128_seconds'] * 1000:8.1f} ms",
        f"  complex64  {dtype['complex64_seconds'] * 1000:8.1f} ms",
        f"  speedup    {dtype['speedup']:8.1f} x   "
        f"(diff {dtype['max_abs_diff']:.1e} <= "
        f"{dtype['documented_bound']:.1e})",
    ]
    invariants = {
        name: value
        for record in report["records"]
        for name, value in record["invariants"].items()
    }
    failed = [name for name, value in invariants.items() if not value]
    lines.append("")
    lines.append(
        "invariants: "
        + (
            "all pass"
            if not failed
            else "FAILED " + ", ".join(failed)
        )
    )
    return "\n".join(lines)


def check_state_regression(committed: dict, fresh: dict) -> list[str]:
    """Compare a fresh statevector report against the committed baseline.

    Joins records on :func:`state_record_key` and checks every boolean
    invariant of the fresh run holds — exact fast-path parity, exact
    batched/looped sampler agreement, batch-size invariance, seeded
    determinism, the chi-square GOF, and the complex64 parity bound.
    All are deterministic; wall-clock and speedups are never compared.
    An invariant the committed report records but the fresh run no
    longer reports also fails (silent coverage loss).  Returns the list
    of failure messages (empty = pass).
    """
    baseline = {state_record_key(r): r for r in committed["records"]}
    failures = []
    for record in fresh["records"]:
        base = baseline.get(state_record_key(record))
        if base is None:
            continue
        for name in base["invariants"]:
            if name not in record["invariants"]:
                failures.append(
                    f"{record['case']}: invariant {name} present in the "
                    f"committed report but missing from the fresh run"
                )
        for name, value in record["invariants"].items():
            if not value:
                failures.append(
                    f"{record['case']}: invariant {name} failed "
                    f"({record['workload']})"
                )
    return failures


def run_bench(smoke: bool = False, seed: int = 2019) -> dict:
    """Run every suite and return the JSON-ready report.

    ``smoke`` shrinks the workloads (4 wires, fewer trials, single
    timing repeat) so CI finishes in seconds; the full run uses the
    5-wire acceptance workload.
    """
    if smoke:
        density = bench_density(num_controls=3, repeats=1)
        trajectory = bench_trajectory(
            num_controls=3, trials=60, seed=seed, repeats=1
        )
        workloads = bench_workloads(
            num_controls=3, trials=30, seed=seed,
            pairs=(("qutrit_tree", SC), ("qutrit_tree", DRESSED_QUTRIT)),
        )
    else:
        density = bench_density(num_controls=4, repeats=2)
        trajectory = bench_trajectory(
            num_controls=4, trials=300, seed=seed, repeats=1
        )
        workloads = bench_workloads(num_controls=4, trials=150, seed=seed)
    return {
        "schema": SCHEMA,
        "generated_by": "python -m repro bench --suite noise"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "seed": seed,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "density": density,
        "trajectory": trajectory,
        "workloads": workloads,
    }


def render_report(report: dict) -> str:
    """Human-readable summary of :func:`run_bench` output."""
    density = report["density"]
    trajectory = report["trajectory"]
    lines = [
        f"noise bench ({'smoke' if report['smoke'] else 'full'}, "
        f"seed {report['seed']})",
        "",
        f"density   {density['workload']} under {density['noise_model']}:",
        f"  axis-local {density['axis_local_seconds'] * 1000:8.1f} ms",
        f"  dense kron {density['dense_kron_seconds'] * 1000:8.1f} ms",
        f"  speedup    {density['speedup']:8.1f} x   "
        f"(parity {density['parity_max_abs_diff']:.1e})",
        "",
        f"trajectory {trajectory['workload']} under "
        f"{trajectory['noise_model']}:",
        f"  fused      {trajectory['batched_seconds'] * 1000:8.1f} ms",
        f"  looped     {trajectory['looped_seconds'] * 1000:8.1f} ms",
        f"  speedup    {trajectory['speedup']:8.1f} x",
        "",
        "workloads (fused engine):",
    ]
    for record in report["workloads"]:
        lines.append(
            f"  {record['construction']:>14s} x {record['noise_model']:<14s}"
            f" {record['mean_fidelity'] * 100:6.2f}% "
            f"(+/- {record['two_sigma'] * 100:.2f}%)"
            f" in {record['seconds'] * 1000:7.1f} ms"
        )
    return "\n".join(lines)


def write_report(report: dict, path: str | Path) -> Path:
    """Serialize the report to ``path`` (pretty-printed, trailing NL)."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


@dataclass(frozen=True)
class BenchSuite:
    """One registered benchmark suite behind ``repro bench --suite``.

    ``run`` takes ``(smoke, seed)`` regardless of whether the underlying
    runner is seeded — unseeded suites ignore the argument — so the CLI
    can drive every suite through one code path.  ``check`` is ``None``
    for timing-only suites that have no committed-baseline gate.
    """

    name: str
    run: Callable[[bool, int], dict]
    render: Callable[[dict], str]
    default_out: str
    check: "Callable[[dict, dict], list[str]] | None" = None


#: Every benchmark suite, in the order ``repro bench --suite all`` runs
#: them (interop, the newest, is last).
#: All callables bind late through this module's globals, so
#: monkeypatching ``repro.analysis.bench.run_route_bench`` (as the CLI
#: tests do) also redirects the registry.
BENCH_SUITES: dict[str, BenchSuite] = {
    suite.name: suite
    for suite in (
        BenchSuite(
            "noise",
            lambda smoke, seed: run_bench(smoke=smoke, seed=seed),
            lambda report: render_report(report),
            "BENCH_noise.json",
        ),
        BenchSuite(
            "verify",
            lambda smoke, seed: run_verify_bench(smoke=smoke),
            lambda report: render_verify_report(report),
            "BENCH_verify.json",
        ),
        BenchSuite(
            "route",
            lambda smoke, seed: run_route_bench(smoke=smoke),
            lambda report: render_route_report(report),
            "BENCH_route.json",
            lambda committed, fresh: check_route_regression(
                committed, fresh
            ),
        ),
        BenchSuite(
            "opt",
            lambda smoke, seed: run_opt_bench(smoke=smoke),
            lambda report: render_opt_report(report),
            "BENCH_opt.json",
            lambda committed, fresh: check_opt_regression(
                committed, fresh
            ),
        ),
        BenchSuite(
            "state",
            lambda smoke, seed: run_state_bench(smoke=smoke),
            lambda report: render_state_report(report),
            "BENCH_state.json",
            lambda committed, fresh: check_state_regression(
                committed, fresh
            ),
        ),
        BenchSuite(
            "serve",
            lambda smoke, seed: run_serve_bench(smoke=smoke, seed=seed),
            lambda report: render_serve_report(report),
            "BENCH_serve.json",
            lambda committed, fresh: check_serve_regression(
                committed, fresh
            ),
        ),
        BenchSuite(
            "chaos",
            lambda smoke, seed: run_chaos_bench(smoke=smoke, seed=seed),
            lambda report: render_chaos_report(report),
            "BENCH_chaos.json",
            lambda committed, fresh: check_chaos_regression(
                committed, fresh
            ),
        ),
        BenchSuite(
            "interop",
            lambda smoke, seed: run_interop_bench(smoke=smoke),
            lambda report: render_interop_table(report),
            "BENCH_interop.json",
            lambda committed, fresh: check_interop_regression(
                committed, fresh
            ),
        ),
    )
}
