"""Engine benchmarks: one record format, one gate, one renderer.

``python -m repro bench --suite NAME`` runs one registered suite
(:data:`BENCH_SUITES`) and writes its report to ``BENCH_NAME.json``
(``BENCH_NAME.smoke.json`` with ``--smoke``); ``--suite all`` runs
every suite, and ``--check BASELINE`` gates the fresh report against a
committed one (:func:`check_report`).

A report is ``{"schema", "suite", "generated_by", "smoke", "platform",
"records"}``.  A record is four flat maps:

* ``key`` — the case identity, unique within a report;
* ``recorded`` — values that are never gated: timings, speedups,
  fidelity estimates, oracle names, counts that depend on thread timing;
* ``structural`` — ints that repeat exactly from run to run for one
  library version: gate counts, SWAPs, depths, inputs checked;
* ``invariants`` — the bools the suite claims.  A claim the suite could
  not make is absent, not false.

Each suite is a ``(smoke, seed) -> records`` function.  Its smoke cases
are a subset of its full cases, so a smoke run joins the committed full
baseline record for record:

* **noise** — density-matrix evolution, axis-local engine vs the dense
  ``kron`` reference; fused vs looped trajectory estimation; Table 2/3
  style fidelity estimates (construction x noise model);
* **verify** — batched vs looped exhaustive classical verification, and
  the paper's Sec. 6 width-14 exhaustive check;
* **route** — the Sec. VII connectivity study: construction x topology x
  width, greedy and lookahead routers;
* **opt** — the rewrite engine over the Fig. 9/10 constructions,
  logical and line-routed, each changed circuit oracle-verified;
* **state** — the statevector permutation fast path, the batched counts
  sampler and the complex64 mode, each against its reference;
* **serve** — zipfian load through the job queue, then a simulated
  restart served from the persistent store;
* **chaos** — the same stack under injected faults, then corrupted
  store entries;
* **interop** — naive lifting vs temporary ternary compilation;
* **paper** — the paper's claims (Figures 9-11, Table 1, Secs. 5, 6.2
  and 9) as invariants over its circuits, apps and simulators.

All suites are seeded and deterministic in their structural values and
invariants; timings are hardware-dependent (the report records the
platform).
"""

from __future__ import annotations

import json
import platform
import tempfile
import textwrap
import time
import traceback
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from ..interop.bench import (
    INTEROP_CASES,
    INTEROP_SMOKE_CASES,
    INTEROP_SMOKE_TOPOLOGIES,
    INTEROP_TOPOLOGIES,
    STRATEGIES,
    compile_strategy,
)
from ..noise.model import NoiseModel
from ..noise.presets import (
    BARE_QUTRIT,
    DRESSED_QUTRIT,
    SC,
    SC_T1_GATES,
    SUPERCONDUCTING_MODELS,
    TI_QUBIT,
)
from ..sim.dense_reference import DenseDensityMatrixSimulator
from ..sim.density import DensityMatrixSimulator
from ..sim.fidelity import (
    estimate_circuit_fidelity,
    estimate_circuit_fidelity_looped,
)
from ..sim.kernels import GATHER, mixed_radix_weights
from ..sim.measurement import sample_counts, sample_state
from ..sim.state import StateVector
from ..sim.statevector import StateVectorSimulator, circuit_steps
from ..toffoli.registry import (
    CONSTRUCTIONS, build_toffoli, construction_circuit,
)
from ..toffoli.verification import (
    verify_classical_looped,
    verify_construction,
)
from .figures import (
    FIG11_PAIRS, PAPER_COUNT_FITS, PAPER_DEPTH_FITS, fig9_depth_data,
    fig10_gate_count_data, fig11_fidelity_data,
)
from .metrics import sweep_constructions
from .scaling import best_fit, fit_model

__all__ = [
    "SCHEMA",
    "BENCH_SUITES",
    "run_suite",
    "check_report",
    "render_report",
    "write_report",
]

#: The one schema tag every bench report carries.
SCHEMA = "repro-bench/v1"


def _record(
    key: dict,
    *,
    recorded: dict | None = None,
    structural: dict | None = None,
    invariants: dict | None = None,
) -> dict:
    return {
        "key": key,
        "recorded": recorded or {},
        "structural": structural or {},
        "invariants": invariants or {},
    }


def _best_of(repeats: int, task: Callable[[], object]) -> tuple[float, object]:
    """Minimum wall-clock over ``repeats`` runs (and the last result)."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = task()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# noise
# ----------------------------------------------------------------------


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
    return _record(
        {
            "case": "density",
            "construction": construction,
            "num_controls": num_controls,
            "noise_model": model.name,
        },
        recorded={
            "axis_local_seconds": new_seconds,
            "dense_kron_seconds": old_seconds,
            "speedup": old_seconds / new_seconds,
            "parity_max_abs_diff": max_diff,
        },
        structural={
            "wires": len(wires),
            "hilbert_dim": int(np.prod([w.dimension for w in wires])),
            "operations": circuit.num_operations,
        },
        invariants={"parity_below_1e-12": max_diff < 1e-12},
    )


def bench_trajectory(
    num_controls: int = 4,
    model: NoiseModel = SC,
    trials: int = 200,
    seed: int = 2019,
    repeats: int = 1,
    construction: str = "qutrit_tree",
) -> dict:
    """Fused vs looped trajectory estimation on one circuit/model.

    The two engines draw independent streams, so they agree within
    twice their combined two-sigma (at least 0.05), not exactly.
    """
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
    combined = batched.two_sigma + looped.two_sigma
    gap = abs(batched.mean_fidelity - looped.mean_fidelity)
    return _record(
        {
            "case": "trajectory",
            "construction": construction,
            "num_controls": num_controls,
            "noise_model": model.name,
            "trials": trials,
            "seed": seed,
        },
        recorded={
            "batched_seconds": batched_seconds,
            "looped_seconds": looped_seconds,
            "speedup": looped_seconds / batched_seconds,
            "batched_mean_fidelity": batched.mean_fidelity,
            "looped_mean_fidelity": looped.mean_fidelity,
            "combined_two_sigma": combined,
        },
        invariants={"engines_agree": bool(gap < max(2 * combined, 0.05))},
    )


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
        fidelity = estimate.mean_fidelity
        records.append(_record(
            {
                "case": "workload",
                "construction": construction,
                "num_controls": num_controls,
                "noise_model": model.name,
                "trials": trials,
                "seed": seed,
            },
            recorded={
                "seconds": seconds,
                "mean_fidelity": fidelity,
                "two_sigma": estimate.two_sigma,
                "mean_gate_errors": estimate.mean_gate_errors,
                "mean_idle_jumps": estimate.mean_idle_jumps,
            },
            invariants={
                "fidelity_in_unit_interval": 0.0 <= fidelity <= 1.0 + 1e-9
            },
        ))
    return records


def noise_suite(smoke: bool, seed: int) -> list[dict]:
    """The 4-wire smoke cases, then (full run) the 5-wire acceptance
    workload: density, trajectory and Table 2/3 estimates."""
    records = [
        bench_density(num_controls=3, repeats=1),
        bench_trajectory(num_controls=3, trials=60, seed=seed),
        *bench_workloads(
            num_controls=3, trials=30, seed=seed,
            pairs=(("qutrit_tree", SC), ("qutrit_tree", DRESSED_QUTRIT)),
        ),
    ]
    if not smoke:
        records += [
            bench_density(num_controls=4, repeats=2),
            bench_trajectory(num_controls=4, trials=300, seed=seed),
            *bench_workloads(num_controls=4, trials=150, seed=seed),
        ]
    return records


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


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
    the noise suite's kernel warmup).
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
    return _record(
        {
            "case": "speedup",
            "construction": construction,
            "num_controls": num_controls,
        },
        recorded={
            "batched_seconds": batched_seconds,
            "looped_seconds": looped_seconds,
            "speedup": looped_seconds / batched_seconds,
        },
        structural={
            "width": len(result.all_wires),
            "inputs": batched_count,
            "operations": result.circuit.num_operations,
        },
        invariants={"decisions_agree": batched_count == looped_count},
    )


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
    width = len(result.all_wires)
    return _record(
        {
            "case": "exhaustive",
            "construction": construction,
            "num_controls": num_controls,
        },
        recorded={"seconds": seconds},
        structural={
            "width": width,
            "inputs": checked,
            "operations": result.circuit.num_operations,
        },
        invariants={"covers_every_input": checked == 2**width},
    )


def verify_suite(smoke: bool, seed: int) -> list[dict]:
    """The N=5 speedup pair and width-10 check, then (full run) the N=8
    speedup pair and the paper's width-14 (N=13) check."""
    records = [
        bench_verify_speedup(num_controls=5, repeats=2),
        bench_verify_width14(num_controls=9),
    ]
    if not smoke:
        records += [
            bench_verify_speedup(num_controls=8, repeats=3),
            bench_verify_width14(num_controls=13),
        ]
    return records


# ----------------------------------------------------------------------
# route
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

#: Control counts of the full routing sweep; smoke keeps a prefix.
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
    """Route one construction onto one sized topology; returns the record."""
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
    return _record(
        {
            "construction": construction,
            "num_controls": num_controls,
            "topology_kind": topology_kind,
            "router": router,
        },
        recorded={
            "topology": topology.name,
            "noise_model": model.name,
            "seconds": seconds,
            "depth_overhead": metrics.depth_overhead,
            "swap_overhead": metrics.swap_overhead,
            "fidelity_proxy": metrics.fidelity_proxy,
            "logical_fidelity_proxy": metrics.logical_fidelity_proxy,
        },
        structural={
            "wires": len(wires),
            "sites": topology.size,
            "swap_count": metrics.swap_count,
            "logical_depth": metrics.logical_depth,
            "routed_depth": metrics.routed_depth,
            "logical_two_qudit": metrics.logical_two_qudit,
            "routed_two_qudit": metrics.routed_two_qudit,
        },
    )


def route_suite(smoke: bool, seed: int) -> list[dict]:
    """Every construction x width x topology cell, greedy then
    lookahead; the lookahead record claims it needs no more SWAPs."""
    records = []
    for construction in ROUTE_CONSTRUCTIONS:
        for num_controls in ROUTE_SMOKE_WIDTHS if smoke else ROUTE_WIDTHS:
            for kind in ROUTE_TOPOLOGIES:
                greedy, lookahead = (
                    bench_route_case(construction, num_controls, kind, router)
                    for router in ("greedy", "lookahead")
                )
                lookahead["invariants"]["not_worse_than_greedy"] = (
                    lookahead["structural"]["swap_count"]
                    <= greedy["structural"]["swap_count"]
                )
                records += [greedy, lookahead]
    return records


# ----------------------------------------------------------------------
# opt
# ----------------------------------------------------------------------

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

#: Control counts of the full optimizer sweep; smoke keeps a prefix.
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

    Structural values are the cost before and after, and each pass's
    counts (``accepted`` as 0/1).  Verification runs in ``"auto"``
    mode: a changed circuit within the oracle's dense cap is checked end
    to end and the record claims ``verified``; a circuit the engine left
    unchanged, or one past the cap, makes no such claim.
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
    before, after = report.cost_before, report.cost_after
    structural = {
        "gates_before": before.total_gates,
        "gates_after": after.total_gates,
        "two_qudit_before": before.two_qudit_gates,
        "two_qudit_after": after.two_qudit_gates,
        "depth_before": before.depth,
        "depth_after": after.depth,
        "gates_removed": report.gates_removed,
        "depth_removed": report.depth_removed,
        "iterations": report.iterations,
    }
    for name, stats in report.totals().items():
        structural.update({
            f"{name}.applications": stats.applications,
            f"{name}.gates_removed": stats.gates_removed,
            f"{name}.gates_fused": stats.gates_fused,
            f"{name}.accepted": int(stats.accepted),
        })
    verified = report.verified in ("classical", "statevector")
    return _record(
        {
            "construction": construction,
            "num_controls": num_controls,
            "stage": stage,
        },
        recorded={"oracle": report.verified, "seconds": seconds},
        structural=structural,
        invariants={"verified": True} if verified else {},
    )


def opt_suite(smoke: bool, seed: int) -> list[dict]:
    """The construction x width x stage optimizer sweep."""
    return [
        bench_opt_case(construction, num_controls, stage)
        for construction in OPT_CONSTRUCTIONS
        for num_controls in (OPT_SMOKE_WIDTHS if smoke else OPT_WIDTHS)
        for stage in OPT_STAGES
    ]


# ----------------------------------------------------------------------
# state
# ----------------------------------------------------------------------

#: Seed of the state suite's random initial states and samplers.
STATE_SEED = 20190608


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


def _gather_passes(circuit) -> int:
    """Gathers a statevector run of ``circuit`` makes over its own wires
    (its :class:`~repro.sim.kernels.GatePlan` gather steps)."""
    steps = circuit_steps(circuit, circuit.all_qudits())
    return sum(step[0] == GATHER for step in steps)


def bench_state_fastpath(
    num_controls: int = 10,
    repeats: int = 3,
    construction: str = "qutrit_tree",
    seed: int = STATE_SEED,
    decompose: bool = False,
) -> dict:
    """Statevector fast path vs the dense-kernel oracle on one circuit.

    The default (``num_controls=10``) is the acceptance workload: the
    undecomposed qutrit tree — every gate a 27x27 three-wire basis
    permutation — applied to a Haar-random state.  The fast path moves
    amplitudes by one table gather per gate; the oracle pays the full
    tensordot.  There both final states agree *exactly* (a permutation
    contraction multiplies by exact ones and zeros).  With
    ``decompose=True`` the decomposed ``qubit_ancilla_free`` circuit
    (N=5: 210 of its 461 gates are T or T^-1) times the diagonal
    multiply beside the gathers and the dense H kernels; a multiply
    agrees with the contraction to rounding.  Either way the invariant
    bounds the largest amplitude difference by 1e-12.  ``gather_passes``
    counts the run's gathers, so a change to the segment rule that adds
    one fails the gate.
    """
    result = build_toffoli(construction, num_controls, decompose=decompose)
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
    return _record(
        {
            "case": "fastpath_decomposed" if decompose else "fastpath",
            "construction": construction,
            "num_controls": num_controls,
            "seed": seed,
        },
        recorded={
            "fast_seconds": fast_seconds,
            "dense_seconds": dense_seconds,
            "speedup": dense_seconds / fast_seconds,
            "parity_max_abs_diff": parity,
        },
        structural={
            "wires": len(wires),
            "hilbert_dim": int(np.prod([w.dimension for w in wires])),
            "operations": circuit.num_operations,
            "gather_passes": _gather_passes(circuit),
        },
        invariants={"fastpath_parity_exact": bool(parity <= 1e-12)},
    )


#: chi-square critical values at alpha = 0.01 (no scipy in CI).
_chi2_critical_001 = {
    1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086,
    6: 16.812, 7: 18.475, 8: 20.090, 9: 21.666, 10: 23.209,
}


def bench_state_sampling(
    width: int = 12,
    shots: int = 500_000,
    repeats: int = 3,
    seed: int = STATE_SEED,
) -> dict:
    """Batched counts sampling vs the per-shot reference on a GHZ state.

    One state, two surfaces: :func:`~repro.sim.measurement.sample_counts`
    (chunked draws, unique-merge, no sample array) against
    :func:`~repro.sim.measurement.sample_state` followed by the
    vectorized histogram.  Invariants: the two agree exactly at one
    seed, counts are batch-size independent and re-run deterministic,
    and a chi-square GOF against the exact probabilities passes (all
    deterministic for the fixed seed).
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
    return _record(
        {"case": "sampling", "width": width, "shots": shots, "seed": seed},
        recorded={
            "batched_seconds": batched_seconds,
            "looped_seconds": looped_seconds,
            "speedup": looped_seconds / batched_seconds,
            "chi_square_statistic": statistic,
            "chi_square_critical": critical,
        },
        structural={
            "distinct_outcomes": len(counts),
            "chi_square_dof": dof,
        },
        invariants={
            "batched_equals_looped": bool(agree),
            "batch_size_invariant": bool(batch_invariant),
            "seed_deterministic": bool(deterministic),
            "chi_square_pass": bool(chi_square_pass),
        },
    )


def bench_state_dtype(
    num_controls: int = 7,
    repeats: int = 3,
    construction: str = "qubit_ancilla_free",
    seed: int = STATE_SEED,
) -> dict:
    """complex64 bulk mode vs complex128 on a dense-gate circuit.

    The qubit ancilla-free construction decomposes into H/T/CNOT —
    plenty of genuinely dense kernels — so this times the per-precision
    cached contraction, not the (rounding-free) permutation gather.
    The invariant is the documented parity bound of docs/SIMULATORS.md:
    ``max |psi64 - psi128| <= operations * sqrt(hilbert_dim) * 1e-7``.
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
    bound = float(circuit.num_operations * np.sqrt(hilbert_dim) * 1e-7)
    seconds128, _ = _best_of(repeats, lambda: sim128.run(circuit, initial))
    seconds64, _ = _best_of(repeats, lambda: sim64.run(circuit, initial))
    return _record(
        {
            "case": "dtype",
            "construction": construction,
            "num_controls": num_controls,
            "seed": seed,
        },
        recorded={
            "complex128_seconds": seconds128,
            "complex64_seconds": seconds64,
            "speedup": seconds128 / seconds64,
            "max_abs_diff": max_diff,
            "documented_bound": bound,
        },
        structural={
            "wires": len(wires),
            "hilbert_dim": hilbert_dim,
            "operations": circuit.num_operations,
        },
        invariants={"within_documented_bound": bool(max_diff <= bound)},
    )


#: The hardware pipelines the one-off case compiles through.
ONEOFF_PIPELINES: tuple[str, ...] = ("hardware-grid-opt", "hardware-line-opt")


def _oneoff_circuits(seed: int) -> tuple[list, list]:
    """(warm-up, measured) compiled circuits of the one-off case.

    Measured: the four Fig. 9/10 constructions (:data:`OPT_CONSTRUCTIONS`)
    at N 4-5 and random Clifford+T circuits (6-8 qubits, depth 200, two
    seeds each), each through both hardware pipelines.  Warm-up: the
    constructions at N 3 and Clifford+T circuits at a seed no measured
    circuit uses, so the two sets share gates and placements but no
    circuit.
    """
    from ..execution.pipeline_spec import PipelineSpec
    from ..interop.workloads import random_clifford_t

    def targets(widths, seeds):
        for name, n in product(OPT_CONSTRUCTIONS, widths):
            yield construction_circuit(name, n)
        for qubits, circuit_seed in product((6, 7, 8), seeds):
            yield random_clifford_t(qubits, 200, seed=circuit_seed)

    compiled: tuple[list, list] = ([], [])
    for pipeline in ONEOFF_PIPELINES:
        compiler = PipelineSpec.from_name(pipeline).build()
        for circuits, widths, seeds in (
            (compiled[0], (3,), (seed + 2,)),
            (compiled[1], (4, 5), (seed, seed + 1)),
        ):
            circuits += [
                compiler.compile(target).circuit
                for target in targets(widths, seeds)
            ]
    return compiled


def bench_state_oneoff(repeats: int = 3, seed: int = STATE_SEED) -> dict:
    """The statevector engine on compiled circuits it runs only once.

    A compile-and-run stream never repeats a circuit, so each of its
    permutation segments misses the composed-segment cache and is
    composed from its steps' gathers (reused from the per-placement
    cache where a single-op application left one).  Each repeat clears
    the kernel caches, runs the warm-up circuits (:func:`_oneoff_circuits`)
    and then times one run of every measured circuit from a Haar-random
    state; the best repeat is recorded.  The invariant bounds every
    circuit's largest amplitude difference from the dense-kernel
    oracle (``permutation_fast_path=False``) by 1e-12, and
    ``gather_passes`` counts the measured runs' gathers.
    """
    from ..sim.kernels import clear_kernel_caches

    warmup, measured = _oneoff_circuits(seed)
    rng = np.random.default_rng(seed)
    initial = [
        StateVector.random(circuit.all_qudits(), rng) for circuit in measured
    ]
    simulator = StateVectorSimulator()
    best = float("inf")
    finals: list = []
    for _ in range(max(1, repeats)):
        clear_kernel_caches()
        for circuit in warmup:
            simulator.run(circuit)
        start = time.perf_counter()
        finals = [
            simulator.run(circuit, state)
            for circuit, state in zip(measured, initial)
        ]
        best = min(best, time.perf_counter() - start)
    dense = StateVectorSimulator(permutation_fast_path=False)
    parity = max(
        float(np.abs(final.vector - dense.run(circuit, state).vector).max())
        for circuit, state, final in zip(measured, initial, finals)
    )
    return _record(
        {
            "case": "oneoff_compiled",
            "pipelines": ",".join(ONEOFF_PIPELINES),
            "seed": seed,
        },
        recorded={
            "engine_seconds": best,
            "engine_ms_per_circuit": 1e3 * best / len(measured),
            "parity_max_abs_diff": parity,
        },
        structural={
            "warmup_circuits": len(warmup),
            "circuits": len(measured),
            "operations": sum(c.num_operations for c in measured),
            "gather_passes": sum(_gather_passes(c) for c in measured),
        },
        invariants={"oneoff_parity_within_1e-12": bool(parity <= 1e-12)},
    )


def bench_state_basis_support(
    num_controls: int = 9,
    repeats: int = 3,
    shots: int = 1000,
    seed: int = STATE_SEED,
) -> dict:
    """A basis-input run on the support against the dense plan.

    The lowered qutrit tree (the ``sim-heavy`` shots circuit) runs from
    its all-active basis input: :meth:`StateVectorSimulator
    .evolve_basis` walks its support, the dense plan runs the same
    input given as a register.  Invariants: the walk's final state is
    within 1e-12 of the dense-kernel oracle's
    (``permutation_fast_path=False``), and the statevector backend's
    seeded shots, drawn from the support, equal the counts the same
    seed draws from the oracle's register.  Structural: the moments the
    walk ran on the support and whether it handed over to the register.
    """
    from ..execution.backends import StateVectorBackend
    from ..execution.pipeline_spec import PipelineSpec
    from ..sim.classical import ClassicalSimulator
    from ..sim.statevector import _SUPPORT_MAX_FRACTION

    built = build_toffoli("qutrit_tree", num_controls)
    circuit = PipelineSpec.from_name("lowering").build().compile(
        built.circuit
    ).circuit
    wires = list(built.all_wires)
    values = (1,) * num_controls + (0,)
    hilbert_dim = int(np.prod([w.dimension for w in wires]))
    _, walked = ClassicalSimulator().run_support(
        circuit, wires, values, _SUPPORT_MAX_FRACTION * hilbert_dim
    )
    simulator = StateVectorSimulator()
    initial = StateVector.computational_basis(wires, values)
    oracle = StateVectorSimulator(permutation_fast_path=False).run(
        circuit, initial
    )
    parity = float(np.abs(
        simulator.run_basis(circuit, wires, values).vector - oracle.vector
    ).max())
    sampled = StateVectorBackend().run(
        circuit, wires=wires, initial=values, shots=shots, seed=seed
    ).measurements.counts()
    expected = sample_counts(
        oracle, shots, np.random.default_rng(seed)
    ).counts()
    walk_seconds, _ = _best_of(
        repeats, lambda: simulator.evolve_basis(circuit, wires, values)
    )
    dense_seconds, _ = _best_of(
        repeats, lambda: simulator.run(circuit, initial)
    )
    return _record(
        {
            "case": "basis_support",
            "construction": "qutrit_tree",
            "num_controls": num_controls,
            "seed": seed,
        },
        recorded={
            "walk_seconds": walk_seconds,
            "dense_seconds": dense_seconds,
            "speedup": dense_seconds / walk_seconds,
            "parity_max_abs_diff": parity,
        },
        structural={
            "wires": len(wires),
            "hilbert_dim": hilbert_dim,
            "operations": circuit.num_operations,
            "moments": circuit.depth,
            "moments_on_support": walked,
            "handed_over": int(walked < circuit.depth),
        },
        invariants={
            "support_parity_within_1e-12": bool(parity <= 1e-12),
            "seeded_counts_equal_dense": sampled == expected,
        },
    )


def state_suite(smoke: bool, seed: int) -> list[dict]:
    """Narrow cases with one timing repeat (among them the decomposed
    N=5 qubit ancilla-free fast path, whose T gates multiply, the N=9
    basis-input run on the support and the one-off compiled circuits),
    then (full run) the acceptance cases: the N=10 fast path, 500k
    GHZ(12) shots, N=7 complex64, and the support at N=10 and N=12."""
    repeats = 1 if smoke else 3
    records = [
        bench_state_fastpath(num_controls=6, repeats=repeats),
        bench_state_sampling(width=8, shots=20_000, repeats=repeats),
        bench_state_dtype(num_controls=5, repeats=repeats),
        bench_state_fastpath(
            num_controls=5, repeats=repeats,
            construction="qubit_ancilla_free", decompose=True,
        ),
        bench_state_basis_support(num_controls=9, repeats=repeats),
        bench_state_oneoff(repeats=repeats),
    ]
    if not smoke:
        records += [
            bench_state_fastpath(num_controls=10, repeats=repeats),
            bench_state_sampling(width=12, shots=500_000, repeats=repeats),
            bench_state_dtype(num_controls=7, repeats=repeats),
            bench_state_basis_support(num_controls=10, repeats=repeats),
            bench_state_basis_support(num_controls=12, repeats=repeats),
        ]
    return records


# ----------------------------------------------------------------------
# serve and chaos
# ----------------------------------------------------------------------


def _prefixed(prefix: str, values: dict) -> dict:
    """Flatten nested maps into ``prefix.name`` keys."""
    flat = {}
    for name, value in values.items():
        if isinstance(value, dict):
            flat.update(_prefixed(f"{prefix}{name}.", value))
        else:
            flat[f"{prefix}{name}"] = value
    return flat


def serve_suite(smoke: bool, seed: int) -> list[dict]:
    """Zipfian load on a cold queue and empty store, then a restart.

    Phase ``cold`` serves 400 requests over the full catalog; phase
    ``restart`` rebuilds the queue with a cold in-memory cache over the
    same store (a simulated process restart) and replays the workload.
    Which duplicates coalesce and which hit memory depends on thread
    timing, so that split is recorded; their sum is claimed.  There is
    no smoke variant: the full run takes about a second.
    """
    from ..execution.cache import ResultCache
    from ..service.loadgen import default_catalog, run_phase, zipf_workload
    from ..service.queue import JobQueue
    from ..service.store import ResultStore

    catalog = default_catalog()
    requests, workers = 400, 4
    workload = zipf_workload(len(catalog), requests, seed=seed)
    distinct = len(set(workload))

    def phase(store: ResultStore) -> dict:
        with JobQueue(
            workers=workers, cache=ResultCache(backing=store),
        ) as queue:
            return run_phase(queue, catalog, workload)

    with tempfile.TemporaryDirectory() as root:
        cold = phase(ResultStore(root))
        restart = phase(ResultStore(root))

    recorded = {"workers": workers}
    structural = {"catalog_size": len(catalog), "distinct_keys": distinct}
    for name, stats in (("cold", cold), ("restart", restart)):
        for field, value in stats.items():
            gated = field in ("executed", "persistent_hits")
            (structural if gated else recorded)[f"{name}.{field}"] = value
    return [_record(
        {"requests": requests, "zipf_s": 1.1, "seed": seed},
        recorded=recorded,
        structural=structural,
        invariants={
            "exactly_once": cold["executed"] == distinct,
            "shared_duplicates": (
                cold["coalesced"] + cold["memory_hits"]
                == requests - distinct
            ),
            "restart_from_store": (
                restart["executed"] == 0
                and restart["persistent_hits"] == distinct
            ),
        },
    )]


def chaos_suite(smoke: bool, seed: int) -> list[dict]:
    """Zipfian load under injected faults, then corrupted store entries.

    Every injection site fires with probability 0.2 (seeded); the
    resilience invariants of :mod:`repro.resilience.chaos` are the
    claims.  Injection, retry and per-state counts depend on thread
    interleaving, so they are recorded.  There is no smoke variant: the
    full run takes about a second.
    """
    from ..resilience.chaos import chaos_phase, corruption_phase
    from ..service.loadgen import default_catalog, zipf_workload

    catalog = default_catalog(smoke=True)
    requests, workers, rate = 150, 4, 0.2
    workload = zipf_workload(len(catalog), requests, seed=seed)
    distinct = len(set(workload))

    with tempfile.TemporaryDirectory() as root:
        chaos, chaos_invariants = chaos_phase(
            root, catalog, workload,
            workers=workers, rate=rate, seed=seed,
        )
        corruption, corruption_invariants = corruption_phase(
            root, catalog, workload, workers=workers, distinct=distinct,
        )
    return [_record(
        {"requests": requests, "rate": rate, "seed": seed},
        recorded={
            "workers": workers,
            **_prefixed("chaos.", chaos),
            **_prefixed("corruption.", corruption),
        },
        structural={"catalog_size": len(catalog), "distinct_keys": distinct},
        invariants={**chaos_invariants, **corruption_invariants},
    )]


# ----------------------------------------------------------------------
# interop
# ----------------------------------------------------------------------


def interop_suite(smoke: bool, seed: int) -> list[dict]:
    """Naive vs ternary compilation of each qubit workload, routed.

    Each (workload, strategy) pair compiles once — verified against the
    qubit original — then routes once per topology.  A ternary record
    claims it beats the naive lift on both gate count and depth.
    """
    from ..execution.passes import RouteToTopology
    from ..interop.workloads import build_workload
    from ..verify import assert_equivalent

    cases = INTEROP_SMOKE_CASES if smoke else INTEROP_CASES
    topologies = INTEROP_SMOKE_TOPOLOGIES if smoke else INTEROP_TOPOLOGIES
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
            logical = {
                "gate_count": compiled.num_operations,
                "two_qudit_count": sum(
                    1 for op in compiled.all_operations()
                    if op.gate.num_qudits >= 2
                ),
                "depth": compiled.depth,
            }
            for kind in topologies:
                router = RouteToTopology(kind, router="lookahead")
                start = time.perf_counter()
                router.transform(compiled)
                route_seconds = time.perf_counter() - start
                meta = router.last_metadata
                records.append(_record(
                    {
                        "workload": workload,
                        "size": size,
                        "strategy": strategy,
                        "topology_kind": kind,
                    },
                    recorded={
                        "oracle": oracle,
                        "seconds": compile_seconds + route_seconds,
                    },
                    structural={
                        "wires": len(compiled.all_qudits()),
                        **logical,
                        "swap_count": meta["swap_count"],
                        "routed_depth": meta["routed_depth"],
                    },
                    invariants={"verified": True},
                ))
    naive = {
        (r["key"]["workload"], r["key"]["size"], r["key"]["topology_kind"]):
            r["structural"]
        for r in records
        if r["key"]["strategy"] == "naive"
    }
    for record in records:
        key = record["key"]
        if key["strategy"] == "ternary":
            base = naive[key["workload"], key["size"], key["topology_kind"]]
            ours = record["structural"]
            record["invariants"]["beats_naive"] = (
                ours["gate_count"] < base["gate_count"]
                and ours["depth"] < base["depth"]
            )
    return records


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------

#: Widths of the Figure 9/10 and Table 1 sweeps: the smoke sweep, the
#: full sweep, and (Figures 9/10 only) the paper's own widths.
PAPER_SMOKE_SIZES: tuple[int, ...] = (8, 16, 32, 64)
PAPER_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128, 200)
PAPER_FIGURE_SIZES: tuple[int, ...] = (10, *range(25, 201, 25))

_POLYLOG = ("log2(N)", "log2(N)^2")

#: Table 1's rows, shallowest first (the last, Lanyon's qudit-target
#: row, is unranked): the depth fit's candidates (None: all), the fits
#: of the published class, and the (clean, borrowed) ancilla at N.
TABLE1_CLAIMS = {
    "qutrit_tree": (None, _POLYLOG, lambda n: (0, 0)),
    "he_tree": (None, _POLYLOG, lambda n: (n - 1, 0)),
    "wang_chain": (None, ("N",), lambda n: (0, 0)),
    "qubit_one_dirty": (("N", "N^2"), ("N",), lambda n: (0, 1)),
    "qubit_ancilla_free": (("N", "N*log2(N)", "N^2"), ("N*log2(N)", "N^2"),
                           lambda n: (0, 0)),
    "lanyon_target": (None, ("N",), lambda n: (0, 0)),
}


def _fit(name: str, fit) -> dict:
    return {f"{name}.fit": fit.model, f"{name}.coefficient": fit.coefficient}


def paper_fig11(seed: int) -> list[dict]:
    """Figure 11's 16 bars (bar ``i`` seeded ``seed + i``), their orderings."""
    num_controls, trials = 8, 40
    points = fig11_fidelity_data(
        FIG11_PAIRS, num_controls=num_controls, trials=trials, seed=seed
    )
    recorded = {"paper_scale": "13 controls, 1000+ trials per bar: not run "
                "until admission bounds the N=13 trajectory run's memory"}
    structural, mean = {"bars": len(points)}, {}
    for point in points:
        bar = f"{point.circuit_label}/{point.noise_model}"
        mean[bar] = point.estimate.mean_fidelity
        structural[f"{bar}.trials"] = point.estimate.trials
        recorded[f"{bar}.mean_fidelity"] = mean[bar]
        recorded[f"{bar}.two_sigma"] = point.estimate.two_sigma
        recorded[f"{bar}.paper_percent"] = point.paper_percent
    sc = [model.name for model in SUPERCONDUCTING_MODELS]
    ti, bare, dressed = (mean[bar] for bar in (
        "QUBIT/TI_QUBIT", "QUTRIT/BARE_QUTRIT", "QUTRIT/DRESSED_QUTRIT"))
    return [_record(
        {"claim": "fig11", "num_controls": num_controls, "trials": trials,
         "seed": seed},
        recorded=recorded,
        structural=structural,
        invariants={
            "qutrit_beats_qubit_under_every_sc_model": all(
                mean[f"QUTRIT/{m}"] > mean[f"QUBIT/{m}"] for m in sc
            ),
            # At 40 trials per bar, statistical noise may cost one model.
            "qutrit_at_least_qubit_ancilla_under_3_of_4_sc_models": sum(
                mean[f"QUTRIT/{m}"] >= mean[f"QUBIT+ANCILLA/{m}"] for m in sc
            ) >= 3,
            "hardware_upgrades_help_qutrit": (
                mean["QUTRIT/SC+T1+GATES"] > mean["QUTRIT/SC"]
            ),
            "trapped_ion_qutrits_beat_ti_qubit": (
                min(bare, dressed) > ti and dressed >= bare - 0.02
            ),
            "trapped_ion_qutrits_above_0.9": min(bare, dressed) > 0.9,
        },
    )]


def paper_figures(sizes: tuple[int, ...]) -> list[dict]:
    """Figures 9 (depth) and 10 (two-qudit gates) over ``sizes``: per-N
    values; the paper's fitted classes and bands as invariants."""
    depth, count = fig9_depth_data(sizes), fig10_gate_count_data(sizes)
    qutrit = best_fit(sizes, depth["QUTRIT"])
    qutrit_log = fit_model(sizes, depth["QUTRIT"], "log2(N)").coefficient
    ancilla = best_fit(sizes, depth["QUBIT+ANCILLA"], ["N", "N^2"])
    qutrit_n = fit_model(sizes, count["QUTRIT"], "N").coefficient
    ancilla_n = fit_model(sizes, count["QUBIT+ANCILLA"], "N").coefficient

    def record(claim, series, paper, fits, invariants):
        return _record(
            {"claim": claim, "sizes": list(sizes)},
            recorded={**fits, **{
                f"{label}.paper.{n}": float(fit(n))
                for label, fit in paper.items() for n in sizes
            }},
            structural={
                f"{label}.{n}": value for label, values in series.items()
                for n, value in zip(sizes, values)
            },
            invariants=invariants,
        )

    return [record("fig9", depth, PAPER_DEPTH_FITS, {
        **_fit("QUTRIT", qutrit), "QUTRIT.log2(N).coefficient": qutrit_log,
        **_fit("QUBIT+ANCILLA", ancilla),
    }, {
        "qutrit_depth_polylog": qutrit.model in _POLYLOG,
        "qutrit_log2_coefficient_in_5_40": 5 <= qutrit_log <= 40,
        "qubit_ancilla_depth_linear_coefficient_in_40_120": (
            ancilla.model == "N" and 40 <= ancilla.coefficient <= 120
        ),
        "qutrit_below_qubit_ancilla_below_qubit_at_every_n": all(
            a < b < c for a, b, c in zip(
                depth["QUTRIT"], depth["QUBIT+ANCILLA"], depth["QUBIT"])
        ),
    }), record("fig10", count, PAPER_COUNT_FITS, {
        "QUTRIT.N.coefficient": qutrit_n,
        "QUBIT+ANCILLA.N.coefficient": ancilla_n,
    }, {
        "qutrit_count_coefficient_in_3_9": 3 <= qutrit_n <= 9,
        "qubit_ancilla_count_coefficient_in_30_60": 30 <= ancilla_n <= 60,
        "qubit_over_qutrit_above_10_at_every_n": all(
            a > 10 * b for a, b in zip(count["QUBIT"], count["QUTRIT"])
        ),
        "qubit_over_qubit_ancilla_above_3_at_largest_n": (
            count["QUBIT"][-1] > 3 * count["QUBIT+ANCILLA"][-1]
        ),
    })]


def paper_table1(sizes: tuple[int, ...]) -> list[dict]:
    """Table 1 over ``sizes``: depth classes, ancilla, depth ranking."""
    sweeps = sweep_constructions(TABLE1_CLAIMS, sizes)
    recorded, structural, invariants = {}, {}, {}
    for name, (candidates, classes, ancilla) in TABLE1_CLAIMS.items():
        fit = best_fit(sizes, [m.depth for m in sweeps[name]], candidates)
        recorded.update(_fit(f"{name}.depth", fit))
        recorded[f"{name}.paper_depth"] = CONSTRUCTIONS[name].depth_scaling
        structural.update({
            f"{name}.{field}.{m.num_controls}": getattr(m, field)
            for m in sweeps[name]
            for field in ("depth", "clean_ancilla", "borrowed_ancilla")
        })
        invariants[f"{name}.depth_class"] = fit.model in classes
        invariants[f"{name}.ancilla"] = all(
            (m.clean_ancilla, m.borrowed_ancilla) == ancilla(m.num_controls)
            for m in sweeps[name]
        )
    ranked = [metrics[-1].depth for metrics in sweeps.values()][:-1]
    invariants["depth_ranking_at_largest_n"] = all(
        a < b for a, b in zip(ranked, ranked[1:])
    )
    return [_record(
        {"claim": "table1", "sizes": list(sizes)},
        recorded=recorded, structural=structural, invariants=invariants,
    )]


def paper_sec9() -> list[dict]:
    """Section 9: connectivity inflates the qutrit tree's depth, and the
    tree stays cheaper than the qubit baselines on every zoo topology."""
    sizes, routers = (8, 15, 24), ("greedy", "lookahead")
    swaps, depth = {}, {}
    for cell in product(sizes, ("all_to_all", "grid_2d", "line"), routers):
        routed = bench_route_case("qutrit_tree", *cell)["structural"]
        swaps[cell], depth[cell] = routed["swap_count"], routed["routed_depth"]
    growth = {
        kind: swaps[24, kind, "greedy"] / max(1, swaps[8, kind, "greedy"])
        for kind in ("grid_2d", "line")
    }
    (small, large), baselines = (8, 14), ("qubit_one_dirty", "he_tree")
    topologies = ("line", "grid_2d", "ring", "tree", "heavy_hex")
    fields = ("routed_depth", "routed_two_qudit", "swap_count")
    cost = {
        cell: bench_route_case(*cell, "lookahead")["structural"]
        for cell in product(("qutrit_tree", *baselines), (small, large),
                            topologies)
    }

    def added_swaps(name, kind):
        return (cost[name, large, kind]["swap_count"]
                - cost[name, small, kind]["swap_count"])

    return [_record(
        {"claim": "sec9_depth_inflation", "sizes": list(sizes)},
        recorded={f"greedy_swap_growth.{k}": g for k, g in growth.items()},
        structural={
            f"{n}.{kind}.{router}.{field}": values[n, kind, router]
            for field, values in (
                ("routed_depth", depth), ("swap_count", swaps))
            for n, kind, router in values
        },
        invariants={
            "all_to_all_needs_no_swaps": all(
                swaps[n, "all_to_all", r] == 0 for n in sizes for r in routers
            ),
            "greedy_depth_all_to_all_le_grid_le_line": all(
                depth[n, "all_to_all", "greedy"]
                <= depth[n, "grid_2d", "greedy"]
                <= depth[n, "line", "greedy"] for n in sizes
            ),
            "grid_swap_growth_le_line": growth["grid_2d"] <= growth["line"],
            "lookahead_fewer_swaps_than_greedy_on_grid_and_line": all(
                swaps[n, kind, "lookahead"] < swaps[n, kind, "greedy"]
                for n in sizes for kind in ("grid_2d", "line")
            ),
        },
    ), _record(
        {"claim": "sec9_ordering", "sizes": [small, large]},
        structural={
            f"{name}.{n}.{kind}.{field}": cost[name, n, kind][field]
            for name, n, kind in cost for field in fields
        },
        invariants={
            "qutrit_tree_shallower_and_fewer_two_qudit_everywhere": all(
                cost["qutrit_tree", n, kind][f] < cost[base, n, kind][f]
                for n in (small, large) for kind in topologies
                for base in baselines for f in fields[:2]
            ),
            "qutrit_tree_adds_fewer_swaps_than_baselines": all(
                added_swaps("qutrit_tree", kind) < added_swaps(base, kind)
                for kind in topologies for base in baselines
            ),
        },
    )]


def paper_ablations() -> list[dict]:
    """The qutrit tree with gate or idle errors only, the two-qudit cost
    of a three-qutrit gate, and dirty ladders against the 4-way split."""
    from dataclasses import replace

    from ..qudits import qubits
    from ..toffoli.dirty_ancilla import mcx_dirty_ladder, mcx_one_dirty

    tree = build_toffoli("qutrit_tree", 8)
    full, *single = (
        estimate_circuit_fidelity(tree.circuit, model, trials=30, seed=77,
                                  wires=tree.all_wires, circuit_name="QUTRIT")
        for model in (SC, replace(SC, name="SC/gates-only", t1=None),
                      replace(SC, name="SC/idle-only", p1=0.0, p2=0.0))
    )
    logical = construction_circuit("qutrit_tree", 32, decompose=False)
    lowered = construction_circuit("qutrit_tree", 32)
    ratio = lowered.two_qudit_gate_count / logical.num_operations
    wires = qubits(24)
    ladder, split = (sum(op.num_qudits == 2 for op in ops) for ops in (
        mcx_dirty_ladder(wires[:12], wires[12], wires[13:], decompose=True),
        mcx_one_dirty(wires[:12], wires[12], wires[13], decompose=True),
    ))
    return [_record(
        {"claim": "ablations"},
        recorded={
            **{f"{e.noise_model_name}.mean_fidelity": e.mean_fidelity
               for e in (full, *single)},
            "two_qudit_per_three_qutrit_gate": ratio,
        },
        structural={
            "error_sources.trials": full.trials,
            "tree32.three_qutrit_gates": logical.num_operations,
            "tree32.two_qudit_gates": lowered.two_qudit_gate_count,
            "c12x.ladder_two_qubit_gates": ladder,
            "c12x.split_two_qubit_gates": split,
        },
        invariants={
            # The 30-trial estimates are noisy: the margin is two
            # combined standard errors.
            "single_source_fidelity_at_least_full_minus_2se": all(
                e.mean_fidelity >= full.mean_fidelity
                - 2 * np.sqrt(full.std_error**2 + e.std_error**2)
                for e in single
            ),
            "three_qutrit_gate_costs_6_to_7.2_two_qudit": 6 <= ratio <= 7.2,
            "dirty_ladder_beats_four_way_split": ladder < split,
        },
    )]


def paper_apps() -> list[dict]:
    """Section 5: Grover search, the incrementer and the neuron."""
    from ..apps import incrementer as inc
    from ..apps.grover import GroverSearch
    from ..apps.neuron import QuantumNeuron
    from ..circuits.circuit import Circuit
    from ..qudits import qubits

    constructions = ("qutrit_tree", "qubit_cascade")
    searches = [GroverSearch(4, 11, construction=c) for c in constructions]
    success = [s.success_probability() for s in searches]
    depth = [s.build_circuit(1).depth for s in searches]
    widths = (8, 16, 32)
    incremented = [inc.qutrit_incrementer_circuit(w)[0].depth for w in widths]
    ripple = [Circuit(inc.qubit_ripple_incrementer_ops(qubits(w))).depth
              for w in widths]
    fit = best_fit(widths, ripple, ["N", "N^2", "N*log2(N)"])
    weights = [1, -1, 1, 1, -1, 1, -1, -1]
    neurons = [QuantumNeuron(3, weights, c) for c in constructions]
    activation = [n.activation_probability(weights) for n in neurons]
    rng = np.random.default_rng(5)
    inputs = [[int(s) for s in rng.choice([-1, 1], size=8)] for _ in range(5)]
    neuron, circuit = neurons[0], neurons[0].build_circuit(weights)
    wires = set(circuit.all_qudits())
    return [_record(
        {"claim": "grover", "bits": 4, "marked": 11},
        recorded={"success": success[0], "qubit_cascade_success": success[1]},
        structural={
            "optimal_iterations": searches[0].optimal_iterations(),
            "iteration_depth": depth[0],
            "qubit_cascade_iteration_depth": depth[1],
        },
        invariants={
            "success_above_0.9_after_3_iterations": (
                success[0] > 0.9 and searches[0].success_probability(3) > 0.9
            ),
            "qutrit_oracle_shallower": depth[0] < depth[1],
            "constructions_agree_1e-6": abs(success[0] - success[1]) < 1e-6,
        },
    ), _record(
        {"claim": "incrementer", "widths": list(widths)},
        recorded=_fit("qubit_ripple", fit),
        structural={
            **{f"qutrit.{w}": d for w, d in zip(widths, incremented)},
            **{f"qubit_ripple.{w}": d for w, d in zip(widths, ripple)},
        },
        invariants={
            "qubit_ripple_superlinear": fit.model in ("N^2", "N*log2(N)"),
            "qutrit_shallower_at_every_width": all(
                a < b for a, b in zip(incremented, ripple)
            ),
        },
    ), _record(
        {"claim": "neuron", "bits": 3},
        recorded={
            "self_activation": activation[0],
            "qubit_cascade_self_activation": activation[1],
        },
        structural={
            "wires": len(wires), "depth": circuit.depth,
            "two_qudit_gates": circuit.two_qudit_gate_count,
        },
        invariants={
            "self_activation_is_1": bool(
                np.isclose(activation[0], 1.0, atol=1e-7)
            ),
            "matches_classical_on_5_random_inputs": all(
                np.isclose(neuron.activation_probability(x),
                           neuron.classical_activation(x), atol=1e-7)
                for x in inputs
            ),
            "ancilla_free": wires <= {*neuron.register, neuron.output},
            "qubit_cascade_self_activation_is_1": bool(
                np.isclose(activation[1], 1.0, atol=1e-6)
            ),
        },
    )]


def paper_facade() -> list[dict]:
    """``execute``: cached sweeps, and the lowering pipeline's output."""
    from ..execution import (PipelineSpec, ResultCache, circuit_fingerprint,
                             execute)

    def sweep(cache=None):
        return execute("qutrit_tree", backend="trajectory", noise_model=SC,
                       sweep={"num_controls": range(3, 8)}, trials=20,
                       seed=2019, cache=cache)

    fresh, cache = sweep(), ResultCache()
    sweep(cache)
    seconds, cached = _best_of(1, lambda: sweep(cache))
    plain = construction_circuit("qutrit_tree", 6, decompose=False)
    compiled = PipelineSpec.from_name("lowering").build().compile(plain)
    inline = construction_circuit("qutrit_tree", 6)
    return [_record(
        {"claim": "execute_facade"},
        recorded={"cached_sweep_seconds": seconds},
        structural={"points": len(cached), "cache_hits": cache.stats.hits},
        invariants={
            "cache_serves_every_point": cache.stats.hits >= len(cached),
            "cached_equals_fresh": [r.mean_fidelity for r in cached]
            == [r.mean_fidelity for r in fresh],
            "lowering_pipeline_matches_inline": circuit_fingerprint(
                compiled.circuit
            ) == circuit_fingerprint(inline),
        },
    )]


def paper_simulator() -> list[dict]:
    """Section 6.2's simulator costs: timings recorded, outputs claimed."""
    from ..gates.controlled import ControlledGate
    from ..gates.qutrit import X_PLUS_1
    from ..linalg import random_state_vector
    from ..qudits import qutrits
    from ..sim.classical import ClassicalSimulator
    from ..toffoli.qutrit_tree import build_qutrit_tree
    from ..toffoli.spec import GeneralizedToffoli

    seconds, outputs = {}, {}
    seconds["random_state_3^14"], vector = _best_of(
        1, lambda: random_state_vector(3**14, np.random.default_rng(0))
    )
    wires = qutrits(12)
    state = StateVector.random(wires, np.random.default_rng(1))
    op = ControlledGate(X_PLUS_1, (3,), (1,)).on(wires[0], wires[6])
    seconds["gate_on_3^12"], _ = _best_of(3, lambda: state.apply_operation(op))
    for n in (20, 9):
        tree = build_qutrit_tree(GeneralizedToffoli(n), decompose=False)
        run = (tree.circuit, tree.all_wires, (1,) * n + (0,))
        seconds[f"classical_width{n + 1}"], outputs[n] = _best_of(
            3, lambda: ClassicalSimulator().run_values(*run)
        )
    seconds["statevector_width10"], final = _best_of(
        1, lambda: StateVectorSimulator().run_basis(*run)
    )
    return [_record(
        {"claim": "simulator"},
        recorded={f"{name}_seconds": value for name, value in seconds.items()},
        invariants={
            "random_state_normalized": vector.shape == (3**14,)
            and bool(np.isclose(np.linalg.norm(vector), 1.0)),
            "gate_application_preserves_norm": bool(
                np.isclose(state.norm(), 1.0, atol=1e-6)
            ),
            "classical_toffoli_fires_at_width21": outputs[20] == (1,) * 21,
            "statevector_matches_classical_at_width10": bool(
                np.isclose(final.probability_of(outputs[9]), 1.0)
            ),
        },
    )]


def paper_suite(smoke: bool, seed: int) -> list[dict]:
    """Every claim family at smoke size; a full run adds the N=200 and
    paper-width sweeps.  Each record records its case's ``seconds``.
    A case that raises leaves one ``case_failed`` record with its
    traceback and a false ``case_ran`` invariant."""
    cases = [
        (paper_fig11, seed), (paper_figures, PAPER_SMOKE_SIZES),
        (paper_table1, PAPER_SMOKE_SIZES), (paper_sec9,), (paper_ablations,),
        (paper_apps,), (paper_facade,), (paper_simulator,),
    ]
    if not smoke:
        cases += [(paper_figures, PAPER_SIZES), (paper_table1, PAPER_SIZES),
                  (paper_figures, PAPER_FIGURE_SIZES)]
    records = []
    for case, *args in cases:
        try:
            seconds, case_records = _best_of(1, lambda: case(*args))
        except Exception:
            # One record names the case and fails the gate; the other
            # cases still run, so every other verdict is printed too.
            records.append(_record(
                {"claim": "case_failed", "case": case.__name__},
                recorded={"traceback": traceback.format_exc()},
                invariants={"case_ran": False},
            ))
            continue
        for record in case_records:
            record["recorded"]["seconds"] = seconds
        records += case_records
    return records


# ----------------------------------------------------------------------
# The registry, the report, the gate and the renderer
# ----------------------------------------------------------------------

#: Every benchmark suite, in the order ``repro bench --suite all`` runs
#: them.  Each maps ``(smoke, seed)`` to its records; unseeded suites
#: ignore the seed.
BENCH_SUITES: dict[str, Callable[[bool, int], list[dict]]] = {
    "noise": noise_suite,
    "verify": verify_suite,
    "route": route_suite,
    "opt": opt_suite,
    "state": state_suite,
    "serve": serve_suite,
    "chaos": chaos_suite,
    "interop": interop_suite,
    "paper": paper_suite,
}


def run_suite(name: str, smoke: bool = False, seed: int = 2019) -> dict:
    """Run one registered suite and return its JSON-ready report."""
    return {
        "schema": SCHEMA,
        "suite": name,
        "generated_by": f"python -m repro bench --suite {name}"
        + (" --smoke" if smoke else ""),
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "records": BENCH_SUITES[name](smoke, seed),
    }


def _label(key: dict) -> str:
    return " ".join(f"{name}={value}" for name, value in key.items())


def check_report(committed: dict, fresh: dict) -> list[str]:
    """Gate a fresh report against a committed baseline.

    The rules, in order:

    1. both reports carry :data:`SCHEMA` and the same suite (otherwise
       one failure naming both);
    2. every fresh record's key is in the committed report;
    3. every fresh invariant is true, and every invariant of the
       committed record is present in the fresh one;
    4. the fresh ``structural`` map equals the committed one exactly;
    5. ``recorded`` is never compared.

    Returns the failure messages, each naming its record (empty = pass).
    """
    headers = [
        (report.get("schema"), report.get("suite"))
        for report in (fresh, committed)
    ]
    if headers[0] != headers[1] or headers[0][0] != SCHEMA:
        (fresh_schema, fresh_suite), (base_schema, base_suite) = headers
        return [
            f"cannot check a fresh {fresh_suite} report ({fresh_schema}) "
            f"against the {base_suite} baseline ({base_schema})"
        ]
    baseline = {
        json.dumps(r["key"], sort_keys=True): r for r in committed["records"]
    }
    failures = []
    for record in fresh["records"]:
        label = _label(record["key"])
        base = baseline.get(json.dumps(record["key"], sort_keys=True))
        if base is None:
            failures.append(f"{label}: no committed record has this key")
            continue
        failures += [
            f"{label}: invariant {name} failed"
            for name, holds in record["invariants"].items()
            if holds is not True
        ]
        failures += [
            f"{label}: invariant {name} is missing from the fresh run"
            for name in base["invariants"]
            if name not in record["invariants"]
        ]
        fresh_values, base_values = record["structural"], base["structural"]
        failures += [
            f"{label}: {name} is {fresh_values.get(name)}, committed "
            f"{base_values.get(name)}"
            for name in sorted(fresh_values.keys() | base_values.keys())
            if fresh_values.get(name) != base_values.get(name)
        ]
    return failures


def _format(value: object) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def render_report(report: dict) -> str:
    """Human-readable summary: one block per record, one line per map."""
    records = report["records"]
    failed = sum(
        not holds for r in records for holds in r["invariants"].values()
    )
    lines = [
        f"{report['suite']} bench "
        f"({'smoke' if report['smoke'] else 'full'}): {len(records)} "
        "records, "
        + (f"{failed} invariants FAILED" if failed else "all invariants hold")
    ]
    for record in records:
        lines += ["", _label(record["key"])]
        sections = {
            section: [
                f"{name}={_format(value)}"
                for name, value in record[section].items()
            ]
            for section in ("structural", "recorded")
        }
        sections["invariants"] = [
            name if holds else f"{name}=FAILED"
            for name, holds in record["invariants"].items()
        ]
        lines += [
            textwrap.fill(
                " ".join(cells), width=79,
                initial_indent=f"  {section:<11s}", subsequent_indent=" " * 13,
                break_long_words=False, break_on_hyphens=False,
            )
            for section, cells in sections.items()
            if cells
        ]
    return "\n".join(lines)


def write_report(report: dict, path: str | Path) -> Path:
    """Serialize the report to ``path`` (pretty-printed, trailing NL)."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
