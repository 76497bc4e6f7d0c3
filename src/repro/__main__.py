"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro run --construction qutrit_tree --controls 5 \\
        --backend classical --input 1 1 1 1 1 0
    python -m repro run --construction qutrit_tree --backend trajectory \\
        --noise SC --sweep 3 7 --trials 50 --seed 2019 --parallel
    python -m repro tables            # Tables 1-3
    python -m repro figures           # Figures 9 and 10 (depth / counts)
    python -m repro fidelity          # scaled-down Figure 11
    python -m repro fidelity --controls 13 --trials 1000   # paper size
    python -m repro verify            # exhaustive construction checks
    python -m repro verify qutrit_tree -n 13 --undecomposed  # width-14 check
    python -m repro bench --suite all            # every suite, full size
    python -m repro bench --suite route          # one suite -> BENCH_route.json
    python -m repro bench --suite interop --smoke \\
        --check BENCH_interop.json               # -> BENCH_interop.smoke.json
    python -m repro bench --suite state --out /tmp/state.json

    # The rewrite engine: optimize a construction (or saved circuit),
    # print per-pass statistics, verify against the equivalence oracles.
    python -m repro optimize --construction he_tree --controls 5
    python -m repro optimize --construction qubit_one_dirty --controls 5 \\
        --pipeline hardware-line --passes cancel-inverses,fuse-phases
    python -m repro optimize --file tree5.json --out tree5.opt.json

    # The execution service: async job queue over execute(), with
    # coalescing, a persistent result store, and fair scheduling.
    python -m repro serve --workers 4 --store .repro-store
    python -m repro serve --socket /tmp/repro.sock

    # Section VII connectivity study: route onto the topology zoo.
    python -m repro route --construction qutrit_tree --controls 8
    python -m repro route --controls 8 --topology line grid_2d heavy_hex \\
        --router both --noise SC
    python -m repro route --controls 8 --router lookahead --lookahead 32 \\
        --placement-trials 8 --trials 200   # + trajectory fidelity

    # Circuits are serializable values: persist, inspect, and replay.
    python -m repro circuit save --construction qutrit_tree --controls 5 \\
        --pipeline lowering --out tree5.json
    python -m repro circuit show tree5.json
    python -m repro circuit load tree5.json --backend classical \\
        --input 1 1 1 1 1 0
"""

from __future__ import annotations

import argparse
import sys


def _cli_pipeline(name: "str | None"):
    """Build the pipeline behind a ``--pipeline`` choice."""
    if name is None:
        return None
    from .execution import PipelineSpec

    return PipelineSpec.from_name(name).build()


def _cli_noise(name: "str | None"):
    """The noise model behind a ``--noise`` name (None when not given)."""
    from .noise.presets import noise_model_named

    try:
        return noise_model_named(name)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _print_run_result(result) -> None:
    """Shared result rendering for single runs (run / circuit load)."""
    print(result)
    if result.values is not None:
        print("output values:", result.values)
    if result.measurements is not None:
        for outcome, count in result.measurements.most_common(5):
            print(f"  {outcome}: {count}/{result.measurements.shots}")


def _cmd_run(args: argparse.Namespace) -> None:
    from .execution import execute
    from .execution.backends import check_run_options, resolve_backend
    from .noise.presets import ALL_MODELS

    noise_model = _cli_noise(args.noise)
    if args.backend in ("density", "trajectory") and noise_model is None:
        raise SystemExit(
            f"backend {args.backend!r} needs --noise "
            f"(one of {sorted(ALL_MODELS)})"
        )
    try:
        check_run_options(
            resolve_backend(args.backend, noise_model),
            shots=args.shots, trials=args.trials,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    common = dict(
        backend=args.backend,
        pipeline=_cli_pipeline(args.pipeline),
        noise_model=noise_model,
        shots=args.shots,
        trials=args.trials,
        seed=args.seed,
        parallel=args.parallel,
        workers=args.workers,
    )
    if args.sweep is not None:
        if args.input is not None:
            raise SystemExit(
                "--input applies to a single run; it cannot combine "
                "with --sweep (wire counts differ per point)"
            )
        if args.controls is not None:
            raise SystemExit(
                "--controls conflicts with --sweep; the sweep sets "
                "num_controls"
            )
        low, high = args.sweep
        results = execute(
            args.construction,
            sweep={"num_controls": range(low, high + 1)},
            **common,
        )
        for result in results:
            print(result)
    else:
        controls = args.controls if args.controls is not None else 5
        result = execute(
            args.construction,
            num_controls=controls,
            initial=tuple(args.input) if args.input else None,
            **common,
        )
        _print_run_result(result)


def _cmd_tables(args: argparse.Namespace) -> None:
    from .analysis.tables import render_table1, render_table2, render_table3

    print(render_table1(control_counts=tuple(args.sizes)))
    print()
    print(render_table2())
    print()
    print(render_table3())


def _cmd_figures(args: argparse.Namespace) -> None:
    from .analysis.figures import (
        PAPER_COUNT_FITS,
        PAPER_DEPTH_FITS,
        fig9_depth_data,
        fig10_gate_count_data,
        render_series_table,
    )

    sizes = list(args.sizes)
    print("Figure 9 reproduction: circuit depth")
    print(
        render_series_table(
            sizes, fig9_depth_data(sizes), PAPER_DEPTH_FITS, "depth"
        )
    )
    print()
    print("Figure 10 reproduction: two-qudit gate count")
    print(
        render_series_table(
            sizes, fig10_gate_count_data(sizes), PAPER_COUNT_FITS, "2q gates"
        )
    )


def _cmd_fidelity(args: argparse.Namespace) -> None:
    from .analysis.figures import (
        FIG11_PAIRS, fig11_fidelity_data, render_fidelity_bars,
    )

    print(
        f"Figure 11 reproduction at {args.controls} controls, "
        f"{args.trials} trajectories per bar"
    )
    points = fig11_fidelity_data(
        FIG11_PAIRS, num_controls=args.controls, trials=args.trials,
        seed=args.seed,
    )
    print(render_fidelity_bars(points))


def _read_circuit(path: str):
    from pathlib import Path

    from .circuits.circuit import Circuit
    from .exceptions import SerializationError

    try:
        text = Path(path).read_text()
    except OSError as error:
        raise SystemExit(f"cannot read {path}: {error}")
    try:
        return Circuit.from_json(text)
    except (SerializationError, KeyError) as error:
        raise SystemExit(f"cannot load circuit from {path}: {error}")


def _circuit_summary(circuit) -> str:
    wires = circuit.all_qudits()
    return (
        f"depth={circuit.depth} operations={circuit.num_operations} "
        f"two_qudit={circuit.two_qudit_gate_count} "
        f"wires={len(wires)} "
        f"dims={tuple(w.dimension for w in wires)}"
    )


def _cmd_circuit_save(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .toffoli.registry import CONSTRUCTIONS, construction_circuit

    build_kwargs = {}
    if args.undecomposed:
        info = CONSTRUCTIONS.get(args.construction)
        if info is not None and not info.takes_decompose:
            raise SystemExit(
                f"construction {args.construction!r} does not take "
                "--undecomposed (it already emits permutation-level "
                "gates)"
            )
        build_kwargs["decompose"] = False
    circuit = construction_circuit(
        args.construction, args.controls, **build_kwargs
    )
    pipeline = _cli_pipeline(args.pipeline)
    if pipeline is not None:
        circuit = pipeline.compile(circuit).circuit
    text = circuit.to_json(indent=2 if args.pretty else None)
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}: {_circuit_summary(circuit)}")


def _cmd_circuit_show(args: argparse.Namespace) -> None:
    from .circuits.diagram import to_text_diagram

    circuit = _read_circuit(args.file)
    print(_circuit_summary(circuit))
    if circuit.barrier_floors:
        print(f"barriers at moments {circuit.barrier_floors}")
    print()
    print(to_text_diagram(circuit, max_moments=args.max_moments))


def _cmd_circuit_load(args: argparse.Namespace) -> None:
    from .execution import execute

    circuit = _read_circuit(args.file)
    result = execute(
        circuit,
        backend=args.backend,
        noise_model=_cli_noise(args.noise),
        initial=tuple(args.input) if args.input else None,
        shots=args.shots,
        trials=args.trials,
        seed=args.seed,
    )
    _print_run_result(result)


def _cmd_bench(args: argparse.Namespace) -> None:
    import json
    from pathlib import Path

    from .analysis import bench

    if args.suite == "all":
        if args.check is not None:
            raise SystemExit(
                "--check needs a single --suite (a baseline file is "
                "per-suite); gate suites one invocation at a time"
            )
        if args.out is not None:
            raise SystemExit(
                "--out needs a single --suite; with --suite all each "
                "report goes to its default path"
            )
        names = list(bench.BENCH_SUITES)
    else:
        names = [args.suite]

    committed = None
    if args.check is not None:
        try:
            committed = json.loads(Path(args.check).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(
                f"cannot read committed {args.suite} report "
                f"{args.check}: {error}"
            )
        # Refuse another suite's baseline before running: against an
        # empty report of this suite, only the schema/suite rule fires.
        mismatch = bench.check_report(committed, {
            "schema": bench.SCHEMA, "suite": args.suite, "records": [],
        })
        if mismatch:
            raise SystemExit(f"{args.check}: {mismatch[0]}")

    for index, name in enumerate(names):
        report = bench.run_suite(name, args.smoke, args.seed)
        if index:
            print()
        print(bench.render_report(report))
        out = args.out or f"BENCH_{name}{'.smoke' if args.smoke else ''}.json"
        if out != "-":
            print(f"\nwrote {bench.write_report(report, out)}")
    if committed is None:
        return
    failures = bench.check_report(committed, report)
    if failures:
        print(f"\n{args.suite} regression check FAILED:")
        for failure in failures:
            print(f"  {failure}")
        raise SystemExit(1)
    print(f"\n{args.suite} regression check passed against {args.check}")


def _cmd_serve(args: argparse.Namespace) -> None:
    from .execution.cache import ResultCache
    from .service import JobQueue, ResultStore, serve_socket, serve_stdio

    store = None
    if args.store is not None:
        store = ResultStore(
            args.store,
            max_bytes=args.store_max_bytes,
            max_entries=args.store_max_entries,
        )
    queue = JobQueue(
        workers=args.workers,
        cache=ResultCache(backing=store),
        max_pending=args.max_pending,
        backpressure=args.backpressure,
    )
    try:
        if args.socket is not None:
            print(f"serving on {args.socket}", file=sys.stderr)
            serve_socket(queue, args.socket)
        else:
            serve_stdio(queue)
    finally:
        queue.shutdown(wait=True, cancel_pending=True)


def _cmd_route(args: argparse.Namespace) -> None:
    from .arch.metrics import estimate_routed_fidelity, routing_metrics
    from .arch.router import LookaheadRouter, GreedyRouter, RouterConfig
    from .arch.topology import TOPOLOGY_KINDS, sized_topology
    from .toffoli.registry import construction_circuit

    noise_model = _cli_noise(args.noise)
    if args.trials and noise_model is None:
        raise SystemExit("--trials needs --noise (the model to sample)")

    if args.file is not None:
        circuit = _read_circuit(args.file)
        label = args.file
    else:
        circuit = construction_circuit(args.construction, args.controls)
        label = f"{args.construction}(N={args.controls})"
    pipeline = _cli_pipeline(args.pipeline)
    if pipeline is not None:
        circuit = pipeline.compile(circuit).circuit
    wires = circuit.all_qudits()

    config = RouterConfig(
        lookahead=args.lookahead,
        placement_trials=args.placement_trials,
        seed=args.seed,
    )
    routers = {
        "lookahead": [LookaheadRouter(config)],
        "greedy": [GreedyRouter()],
        "both": [GreedyRouter(), LookaheadRouter(config)],
    }[args.router]

    unknown = [k for k in args.topology if k not in TOPOLOGY_KINDS]
    if unknown:
        raise SystemExit(
            f"unknown topology kind(s) {unknown}; "
            f"choose from {sorted(TOPOLOGY_KINDS)}"
        )

    print(
        f"routing {label}: {len(wires)} wires, depth {circuit.depth}, "
        f"{circuit.two_qudit_gate_count} two-qudit gates"
    )
    header = (
        f"{'topology':>16s} {'router':>9s} {'swaps':>6s} {'depth':>6s} "
        f"{'overhead':>8s} {'swap/2q':>8s}"
    )
    if noise_model is not None:
        header += f" {'fid~':>7s}"
        if args.trials:
            header += f" {'fid(mc)':>9s}"
    print(header)
    for kind in args.topology:
        topology = sized_topology(kind, len(wires), seed=args.seed)
        for router in routers:
            routed = router.route(circuit, topology, wires=wires)
            metrics = routing_metrics(circuit, routed, noise_model)
            row = (
                f"{routed.topology_name:>16s} {routed.router_name:>9s} "
                f"{routed.swap_count:6d} {routed.depth:6d} "
                f"{metrics.depth_overhead:8.2f} {metrics.swap_overhead:8.2f}"
            )
            if noise_model is not None:
                row += f" {metrics.fidelity_proxy:7.3f}"
                if args.trials:
                    estimate = estimate_routed_fidelity(
                        routed, noise_model,
                        trials=args.trials, seed=args.seed,
                    )
                    row += (
                        f" {estimate.mean_fidelity:6.3f}"
                        f"±{estimate.two_sigma:.3f}"
                    )
            print(row)


def _cmd_optimize(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .exceptions import VerificationError
    from .optimize import RewriteEngine
    from .toffoli.registry import construction_circuit

    if args.file is not None:
        circuit = _read_circuit(args.file)
        label = args.file
    else:
        circuit = construction_circuit(args.construction, args.controls)
        label = f"{args.construction}(N={args.controls})"
    pipeline = _cli_pipeline(args.pipeline)
    if pipeline is not None:
        circuit = pipeline.compile(circuit).circuit

    passes = None
    if args.passes is not None:
        passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    verify = False if args.verify == "off" else args.verify
    engine = RewriteEngine(
        passes=passes, cost_model=args.cost_model, verify=verify
    )
    try:
        optimized, report = engine.run(circuit)
    except VerificationError as error:
        raise SystemExit(str(error))

    print(f"optimizing {label} ({engine.cost_model.name} cost model)")
    before, after = report.cost_before, report.cost_after
    print(
        f"  gates {before.total_gates} -> {after.total_gates}, "
        f"two-qudit {before.two_qudit_gates} -> {after.two_qudit_gates}, "
        f"non-Clifford {before.non_clifford_gates} -> "
        f"{after.non_clifford_gates}, "
        f"depth {before.depth} -> {after.depth} "
        f"({report.iterations} sweep(s))"
    )
    print(
        f"{'pass':>16s} {'applied':>8s} {'removed':>8s} "
        f"{'fused':>6s} {'accepted':>9s}"
    )
    for name, stats in report.totals().items():
        print(
            f"{name:>16s} {stats.applications:8d} "
            f"{stats.gates_removed:8d} {stats.gates_fused:6d} "
            f"{'yes' if stats.accepted else 'no':>9s}"
        )
    if report.verified is not None:
        print(f"equivalence: {report.verified}")
    if args.out is not None:
        text = optimized.to_json(indent=2 if args.pretty else None)
        if args.out == "-":
            print(text)
        else:
            Path(args.out).write_text(text + "\n")
            print(f"wrote {args.out}: {_circuit_summary(optimized)}")


def _cmd_verify(args: argparse.Namespace) -> None:
    from .exceptions import VerificationError
    from .toffoli.registry import CONSTRUCTIONS, build_toffoli
    from .toffoli.verification import verify_construction

    if args.construction is not None:
        if args.construction not in CONSTRUCTIONS:
            raise SystemExit(
                f"unknown construction {args.construction!r}; "
                f"choose from {sorted(CONSTRUCTIONS)}"
            )
        names = [args.construction]
    else:
        names = sorted(CONSTRUCTIONS)
    for name in names:
        build_kwargs = {}
        decomposes = CONSTRUCTIONS[name].takes_decompose
        if args.undecomposed:
            if not decomposes:
                if args.construction is not None:
                    raise SystemExit(
                        f"construction {name!r} does not take "
                        "--undecomposed (it already emits "
                        "permutation-level gates)"
                    )
            else:
                build_kwargs["decompose"] = False
        result = build_toffoli(name, args.controls, **build_kwargs)
        try:
            verdict = verify_construction(result)
        except VerificationError as error:
            hint = ""
            if decomposes and not args.undecomposed:
                hint = (
                    "; --undecomposed checks the permutation-level "
                    "circuit in linear time"
                )
            raise SystemExit(f"{error}{hint}")
        print(
            f"{name:20s} N={args.controls}: verified {verdict.inputs} "
            f"inputs, {verdict.oracle} oracle ({result.describe()})"
        )


def _int_at_least(minimum: int):
    """An argparse ``type`` for ints of at least ``minimum``."""
    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    convert.__name__ = "int"
    return convert


def main(argv: list[str] | None = None) -> int:
    """Dispatch the repro command-line interface."""
    from .analysis.bench import BENCH_SUITES
    from .execution.pipeline_spec import PIPELINE_SPECS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ISCA 2019 qutrit-circuits experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute a construction on any backend"
    )
    run.add_argument(
        "--construction", default="qutrit_tree",
        help="registry name (see 'verify' output for the list)",
    )
    run.add_argument(
        "--controls", type=int, default=None,
        help="control count for a single run (default 5)",
    )
    run.add_argument(
        "--backend", default="statevector",
        choices=["classical", "statevector", "density", "trajectory"],
    )
    run.add_argument(
        "--pipeline", default=None, choices=list(PIPELINE_SPECS),
    )
    run.add_argument(
        "--noise", default=None,
        help="noise model name (required by density/trajectory)",
    )
    run.add_argument(
        "--input", type=int, nargs="+", default=None,
        help="basis input values over the construction's wires",
    )
    run.add_argument("--shots", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--sweep", type=int, nargs=2, metavar=("LOW", "HIGH"),
        default=None, help="sweep num_controls over LOW..HIGH inclusive",
    )
    run.add_argument("--parallel", action="store_true")
    run.add_argument("--workers", type=int, default=4)
    run.set_defaults(func=_cmd_run)

    tables = sub.add_parser("tables", help="render Tables 1-3")
    tables.add_argument(
        "--sizes", type=_int_at_least(1), nargs="+", default=[8, 16, 32, 64]
    )
    tables.set_defaults(func=_cmd_tables)

    figures = sub.add_parser("figures", help="Figures 9 and 10 sweeps")
    figures.add_argument(
        "--sizes", type=_int_at_least(1), nargs="+", default=[8, 16, 32, 64]
    )
    figures.set_defaults(func=_cmd_figures)

    fidelity = sub.add_parser("fidelity", help="Figure 11 fidelity bars")
    fidelity.add_argument("--controls", type=_int_at_least(0), default=6)
    fidelity.add_argument("--trials", type=_int_at_least(1), default=25)
    fidelity.add_argument("--seed", type=int, default=2019)
    fidelity.set_defaults(func=_cmd_fidelity)

    bench = sub.add_parser(
        "bench", help="run a benchmark suite (--suite NAME|all)"
    )
    bench.add_argument(
        "--suite", required=True, choices=[*BENCH_SUITES, "all"],
        help="benchmark suite to run ('all' runs every suite with its "
        "default output path)",
    )
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="gate the fresh report against this committed report of "
        "the same suite and exit non-zero on any failure (the CI "
        "bench-regression gate)",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="shrunken workloads for CI (seconds, not minutes)",
    )
    bench.add_argument(
        "--out", default=None,
        help="report path ('-' skips writing; default: BENCH_<suite>.json, "
        "or BENCH_<suite>.smoke.json with --smoke)",
    )
    bench.add_argument("--seed", type=int, default=2019)
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the execution service over line-delimited JSON "
        "(stdin/stdout, or a Unix socket with --socket)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="worker threads draining the job queue",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist results as content-addressed JSON under DIR "
        "(default: in-memory cache only)",
    )
    serve.add_argument(
        "--store-max-bytes", type=int, default=64 * 1024 * 1024,
        help="persistent store size cap before LRU eviction",
    )
    serve.add_argument(
        "--store-max-entries", type=int, default=4096,
        help="persistent store entry cap before LRU eviction",
    )
    serve.add_argument(
        "--max-pending", type=int, default=256,
        help="bound on distinct queued executions (backpressure)",
    )
    serve.add_argument(
        "--backpressure", default="reject", choices=["reject", "block"],
        help="policy at the bound: reject submissions or block them",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a Unix socket instead of stdin/stdout",
    )
    serve.set_defaults(func=_cmd_serve)

    route = sub.add_parser(
        "route",
        help="route a construction onto the topology zoo (Sec. VII study)",
    )
    route.add_argument(
        "--construction", default="qutrit_tree",
        help="registry name (see 'verify' output for the list)",
    )
    route.add_argument("--controls", type=int, default=8)
    route.add_argument(
        "--file", default=None,
        help="route a saved circuit JSON instead of a construction",
    )
    route.add_argument(
        "--pipeline", default=None,
        choices=["lowering", "qutrit-promotion"],
        help="compile before routing (constructions come pre-lowered)",
    )
    route.add_argument(
        "--topology", nargs="+",
        default=["line", "grid_2d", "heavy_hex", "all_to_all"],
        help="topology zoo kinds, sized to the circuit "
        "(line ring star tree grid_2d heavy_hex random_regular "
        "all_to_all)",
    )
    route.add_argument(
        "--router", default="lookahead",
        choices=["lookahead", "greedy", "both"],
    )
    route.add_argument(
        "--lookahead", type=int, default=16,
        help="lookahead window (upcoming 2-qudit gates scored)",
    )
    route.add_argument(
        "--placement-trials", type=int, default=4,
        help="random initial placements tried besides identity + "
        "interaction order",
    )
    route.add_argument(
        "--noise", default=None,
        help="noise model name: adds the closed-form fidelity proxy",
    )
    route.add_argument(
        "--trials", type=int, default=0,
        help="with --noise: trajectory trials for a Monte-Carlo "
        "fidelity estimate of each routed circuit (0 = proxy only)",
    )
    route.add_argument("--seed", type=int, default=2019)
    route.set_defaults(func=_cmd_route)

    optimize = sub.add_parser(
        "optimize",
        help="run the rewrite engine on a construction or saved circuit",
    )
    optimize.add_argument(
        "--construction", default="qutrit_tree",
        help="registry name (see 'verify' output for the list)",
    )
    optimize.add_argument("--controls", type=int, default=5)
    optimize.add_argument(
        "--file", default=None,
        help="optimize a saved circuit JSON instead of a construction",
    )
    optimize.add_argument(
        "--pipeline", default=None, choices=list(PIPELINE_SPECS),
        help="compile before optimizing (e.g. hardware-line to "
        "optimize the routed circuit)",
    )
    optimize.add_argument(
        "--passes", default=None, metavar="NAMES",
        help="comma-separated pass list (default: "
        "cancel-inverses,fuse-phases,pack-commuting)",
    )
    optimize.add_argument(
        "--cost-model", default=None,
        choices=["qutrit-clifford-t", "gate-count"],
        help="accept/reject cost model (default qutrit-clifford-t)",
    )
    optimize.add_argument(
        "--verify", default="auto", choices=["auto", "strict", "off"],
        help="equivalence-oracle mode: auto skips infeasible widths, "
        "strict raises instead, off trusts the passes",
    )
    optimize.add_argument(
        "--out", default=None,
        help="write the optimized circuit JSON ('-' prints to stdout)",
    )
    optimize.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    optimize.set_defaults(func=_cmd_optimize)

    verify = sub.add_parser(
        "verify",
        help="exhaustively verify constructions (all, or one by name)",
    )
    verify.add_argument(
        "construction", nargs="?", default=None,
        help="registry name; omitted = every construction",
    )
    verify.add_argument(
        "-n", "--controls", type=int, default=4,
        help="control count to verify at (default 4)",
    )
    verify.add_argument(
        "--undecomposed", action="store_true",
        help="verify the permutation-level circuit (the paper's "
        "linear-cost classical check; required for wide circuits — "
        "decomposed circuits fall back to exponential state vectors)",
    )
    verify.set_defaults(func=_cmd_verify)

    circuit = sub.add_parser(
        "circuit", help="save / show / replay serialized circuits"
    )
    circuit_sub = circuit.add_subparsers(
        dest="circuit_command", required=True
    )

    save = circuit_sub.add_parser(
        "save", help="build a construction and write its JSON form"
    )
    save.add_argument(
        "--construction", default="qutrit_tree",
        help="registry name (see 'verify' output for the list)",
    )
    save.add_argument("--controls", type=int, default=5)
    save.add_argument(
        "--pipeline", default=None, choices=list(PIPELINE_SPECS),
        help="compile before saving (same pipelines as 'run')",
    )
    save.add_argument(
        "--out", default="-",
        help="output path ('-' prints to stdout)",
    )
    save.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    save.add_argument(
        "--undecomposed", action="store_true",
        help="keep permutation-level gates (classical replay; skips the "
        "builder's width-2 lowering)",
    )
    save.set_defaults(func=_cmd_circuit_save)

    show = circuit_sub.add_parser(
        "show", help="print stats and a diagram of a saved circuit"
    )
    show.add_argument("file", help="path to a saved circuit JSON file")
    show.add_argument(
        "--max-moments", type=int, default=24,
        help="truncate the diagram after this many moments",
    )
    show.set_defaults(func=_cmd_circuit_show)

    load = circuit_sub.add_parser(
        "load", help="load a saved circuit and execute it"
    )
    load.add_argument("file", help="path to a saved circuit JSON file")
    load.add_argument(
        "--backend", default="statevector",
        choices=["classical", "statevector", "density", "trajectory"],
    )
    load.add_argument(
        "--noise", default=None,
        help="noise model name (required by density/trajectory)",
    )
    load.add_argument(
        "--input", type=int, nargs="+", default=None,
        help="basis input values over the circuit's wires",
    )
    load.add_argument("--shots", type=int, default=None)
    load.add_argument("--trials", type=int, default=None)
    load.add_argument("--seed", type=int, default=None)
    load.set_defaults(func=_cmd_circuit_load)

    args = parser.parse_args(argv)
    if args.command == "tables" and len(set(args.sizes)) < 2:
        tables.error("argument --sizes: Table 1 fits need two distinct sizes")
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
