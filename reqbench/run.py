"""Request-level benchmark of the serving path.

Usage (from the repository root)::

    python3 reqbench/run.py --workload compile-cold --seed 1 \\
        --seconds 15 --trace 0

Each request is what the serve protocol does for a ``submit`` with
``"wait": true``: ``JobQueue.submit(...)`` -> ``Job.result()`` ->
``result_to_dict`` + ``json.dumps``, timed from the ``submit`` call to
the serialized response.  One closed-loop client sends requests through
one long-lived ``JobQueue`` layered over a ``ResultStore`` in a temporary
directory inside the checkout.  The timed phase lasts ``--seconds`` and
is extended, up to twice that, until at least ``MIN_REQUESTS``
requests completed, so the 90th percentile has ten samples beyond it.
Every time is scaled to a reference machine speed with ``gauge.py``,
read in the client thread between requests (see README.md).

``--trace 0`` reports the end-to-end metrics with nothing installed.
``--trace 1`` patches spans around each layer's public entry points
(``spans.py``), reports the per-layer metrics, replays the same
requests untraced on a fresh queue to measure the tracing overhead, and
asserts each workload's shape.  Every served result is checked against
a reference after the timed phase (``check.py``); any failure, refusal,
wrong result or ``DeprecationWarning`` raised from ``repro`` marks the
run incorrect.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
#: Result stores live here, inside the checkout, and are removed after.
SCRATCH = ROOT / ".reqbench-tmp"

#: Metric names and units are declared once, in BENCHMARK.json.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
#: Requests a timed phase completes at least (p90 needs ten beyond it).
MIN_REQUESTS = 100
#: The timed phase never runs longer than this multiple of --seconds
#: (keeps a traced run, with its replay and checks, under 180 s).
MAX_STRETCH = 2.0
#: Set-up is measured this many times (this process plus fresh ones).
SETUP_REPEATS = 3
#: Seconds between gauge readings in a timed phase.
GAUGE_EVERY = 0.25
RESULT_TIMEOUT = 120.0


class DeprecationMonitor:
    """Records every DeprecationWarning raised from ``repro`` or from
    this benchmark's own calls into it."""

    def __init__(self, *roots: Path) -> None:
        self.roots = tuple(str(root) for root in roots)
        self.seen: list[str] = []
        self._show = warnings.showwarning

    def install(self) -> "DeprecationMonitor":
        warnings.simplefilter("always", DeprecationWarning)
        warnings.showwarning = self._record
        return self

    def _record(self, message, category, filename, lineno, file=None,
                line=None):
        if issubclass(category, DeprecationWarning) and \
                str(filename).startswith(self.roots):
            self.seen.append(f"{filename}:{lineno}: {message}")
        else:
            self._show(message, category, filename, lineno, file, line)


if not (SOURCE / "repro").is_dir():
    sys.exit(f"reqbench: no src/repro under {ROOT}")
MONITOR = DeprecationMonitor(SOURCE / "repro", HERE).install()
sys.path.insert(1, str(SOURCE))

import gauge  # noqa: E402
import workloads as W  # noqa: E402
from check import (  # noqa: E402
    Checker,
    configuration,
    shared_random_circuits,
)
from repro.execution.cache import ResultCache  # noqa: E402
from repro.service.queue import JobQueue  # noqa: E402
from repro.service.serialization import result_to_dict  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402
from repro.sim.kernels import kernel_cache_stats  # noqa: E402
from spans import Tracer, span_summary  # noqa: E402


@dataclass(frozen=True)
class WorkloadSpec:
    cache_entries: int
    stream: object
    warmup: object
    #: Requests whose distinct compiled circuits the compiled_* metrics
    #: sum over (seed-independent).
    reference: object


SPECS = {
    "compile-cold": WorkloadSpec(
        1024, W.compile_cold, W.compile_cold_warmup,
        W.compile_cold_reference,
    ),
    "sim-heavy": WorkloadSpec(
        1024, W.sim_heavy, W.sim_heavy_warmup, W.sim_heavy_reference,
    ),
    "serve-hot": WorkloadSpec(
        W.SERVE_CACHE_ENTRIES, W.serve_hot, W.serve_hot_warmup,
        W.serve_catalog,
    ),
}


@dataclass
class Record:
    request: W.Request
    result: object = None
    start: float = 0.0
    latency: float = 0.0
    error: str | None = None
    #: ``latency`` at the gauge's reference speed (set after the phase).
    scaled: float = 0.0


def serve_one(queue, request, tracer=None, request_id=0) -> Record:
    """One closed-loop request: submit, wait, serialize."""
    kwargs = W.submit_args(request)
    scope = tracer.request(request_id) if tracer is not None \
        else contextlib.nullcontext()
    with scope:
        return _serve(queue, kwargs, request, tracer)


def _serve(queue, kwargs, request, tracer) -> Record:
    start = time.perf_counter()
    try:
        job = queue.submit(**kwargs)
        submitted = time.perf_counter()
        result = job.result(timeout=RESULT_TIMEOUT)
        if tracer is None:
            json.dumps(result_to_dict(result))
        else:
            payload, span = tracer.timed(
                "serialize", lambda: json.dumps(result_to_dict(result))
            )
            span.attrs["bytes"] = len(payload)
            if job.started_at is not None:
                tracer.add("queue.wait", submitted,
                           max(submitted, job.started_at))
    except Exception as error:  # noqa: BLE001 - counted as failed
        return Record(request, start=start,
                      latency=time.perf_counter() - start,
                      error=repr(error))
    return Record(request, result, start, time.perf_counter() - start)


@dataclass
class Phase:
    records: list[Record]
    #: Seconds from the first request to the last response.
    wall: float
    #: (time, gauge reading in ms), taken between requests.
    readings: list[tuple[float, float]]

    @property
    def busy(self) -> float:
        """Summed request time at the reference speed (s)."""
        return sum(r.scaled for r in self.records)


def run_phase(queue, stream, seconds, tracer=None, count=None) -> Phase:
    """One closed-loop client over ``stream``.

    Without ``count`` the client stops once ``seconds`` passed and
    ``MIN_REQUESTS`` completed (or at ``MAX_STRETCH`` times
    ``seconds``); with ``count`` it sends exactly that many requests
    (the untraced replay).  The gauge is read before a request whenever
    ``GAUGE_EVERY`` seconds passed since the last reading, and once
    after the last response.
    """
    records: list[Record] = []
    readings: list[tuple[float, float]] = []
    start = time.perf_counter()
    for position, request in enumerate(stream):
        now = time.perf_counter()
        if count is not None:
            if position >= count:
                break
        elif now - start >= MAX_STRETCH * seconds or (
            now - start >= seconds and position >= MIN_REQUESTS
        ):
            break
        if not readings or now - readings[-1][0] >= GAUGE_EVERY:
            readings.append((now, gauge.reading()))
        records.append(serve_one(queue, request, tracer, position))
    wall = time.perf_counter() - start
    readings.append((time.perf_counter(), gauge.reading()))
    times = [t for t, _ in readings]
    for record in records:
        # Speed over the request: the mean of the readings right before
        # it started and right after it ended.
        before = readings[bisect.bisect_right(times, record.start) - 1][1]
        after = readings[bisect.bisect_left(
            times, record.start + record.latency
        )][1]
        record.scaled = record.latency * gauge.scale((before + after) / 2)
    return Phase(records, wall, readings)


def make_queue(spec: WorkloadSpec, root: str, runner=None) -> JobQueue:
    cache = ResultCache(max_entries=spec.cache_entries,
                        backing=ResultStore(root))
    return JobQueue(workers=1, cache=cache, runner=runner)


def setup(workload: str, seed: int, scratch: Path, runner=None):
    """Request generation, warm-up pass and the measured queue."""
    spec = SPECS[workload]
    stream = spec.stream(seed)
    if stream != spec.stream(seed):
        raise RuntimeError("request generation is not deterministic")
    with tempfile.TemporaryDirectory(dir=scratch) as warm_root:
        with make_queue(spec, warm_root) as warm_queue:
            for request in spec.warmup():
                record = serve_one(warm_queue, request)
                if record.error is not None:
                    raise RuntimeError(f"warm-up failed: {record.error}")
    store_root = tempfile.mkdtemp(dir=scratch)
    return spec, stream, store_root, make_queue(spec, store_root, runner)


# -- metrics ---------------------------------------------------------------


def declared(section: str, values: dict) -> dict:
    """``values`` with the units BENCHMARK.json declares for
    ``section``; the names must match the declaration exactly."""
    units = {m["name"]: m["unit"] for m in DECLARED[section]}
    if set(values) != set(units):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def check_records(records, checker) -> tuple[int, list[str]]:
    """Failed requests and their problems; a trajectory request fails
    when its configuration's pooled estimate does."""
    problems = {}
    for k, record in enumerate(records):
        problem = record.error or checker.check(record.request,
                                                record.result)
        if problem is not None:
            problems[k] = problem
    pooled = checker.trajectory_problems()
    for k, record in enumerate(records):
        if k not in problems and record.request.family == "trajectory":
            problem = pooled.get(configuration(record.request))
            if problem is not None:
                problems[k] = problem
    return len(problems), [f"{records[k].request}: {p}"
                           for k, p in problems.items()]


def compiled_totals(spec, checker) -> tuple[int, int]:
    distinct = {r.circuit_key: r for r in spec.reference()}
    circuits = [checker.compiled(r).circuit for r in distinct.values()]
    return (sum(c.two_qudit_gate_count for c in circuits),
            sum(c.depth for c in circuits))


def elsewhere(args, mode: str, repeats: int = 1) -> list[float]:
    """Run this script in fresh interpreters (``--setup-only`` or
    ``--replay``) and return the number each prints."""
    values = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            check=True,
        )
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def end_to_end(phase, setup_s, rss_mb, failed, totals):
    records = phase.records
    latencies = sorted(1000.0 * r.scaled for r in records
                       if r.error is None)
    return declared("end_to_end", {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "throughput_rps": len(latencies) / phase.busy,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_share": (len(records) - failed) / len(records),
        "compiled_two_qudit_gates": totals[0],
        "compiled_depth": totals[1],
    })


def per_layer(summary, stats, cache_stats, store_stats, kernel_new,
              requests, overhead):
    ms, attrs, calls = summary["ms"], summary["attrs"], summary["calls"]

    def mean_attr(span, key):
        count = calls.get(span, 0)
        return attrs.get(span, {}).get(key, 0.0) / count if count else 0.0

    def optimize(key):
        total = sum(attrs.get(s, {}).get(key, 0.0)
                    for s in ("optimize.pre", "optimize.post"))
        count = calls.get("optimize.pre", 0) + calls.get("optimize.post", 0)
        return total, count

    iterations, slots = optimize("iterations")
    applications, _ = optimize("applications")
    tried, _ = optimize("tried")
    accepted, _ = optimize("accepted")
    engine_calls = sum(c for s, c in calls.items() if s.startswith("engine"))

    def engine_attr(key):
        total = sum(a.get(key, 0.0) for s, a in attrs.items()
                    if s.startswith("engine"))
        return total / engine_calls if engine_calls else 0.0

    lookups = cache_stats.lookups
    metrics = {"build.ms": ms.get("build", 0.0)}
    for stage in ("decompose", "route", "schedule"):
        name = f"compile.{stage}"
        metrics[f"{name}.ms"] = ms.get(name, 0.0)
        metrics[f"{name}.ops_out"] = mean_attr(name, "ops_out")
        metrics[f"{name}.depth_out"] = mean_attr(name, "depth_out")
    for name in ("optimize.pre", "optimize.post", "optimize.cancel-inverses",
                 "optimize.fuse-phases", "optimize.pack-commuting"):
        metrics[f"{name}.ms"] = ms.get(name, 0.0)
    metrics.update({
        "optimize.iterations": iterations / slots if slots else 0.0,
        "optimize.applications": applications / slots if slots else 0.0,
        "optimize.accept_ratio": accepted / tried if tried else 0.0,
        "route.ms": ms.get("route", 0.0),
        "route.swaps": mean_attr("compile.route", "swaps"),
        "fingerprint.ms": ms.get("fingerprint", 0.0),
        "fingerprint.calls": calls.get("fingerprint", 0) / requests,
        "cache.lookup.ms": ms.get("cache.lookup", 0.0),
        "cache.memory_hit_ratio":
            cache_stats.hits / lookups if lookups else 0.0,
        "cache.store_hit_ratio":
            store_stats.hits / lookups if lookups else 0.0,
        "cache.evictions": cache_stats.evictions,
        "store.get.ms": ms.get("store.get", 0.0),
        "store.put.ms": ms.get("store.put", 0.0),
        "store.bytes_written": mean_attr("store.put", "bytes"),
        "admission.ms": ms.get("admission", 0.0),
        "admission.downgraded": stats.degraded,
        "admission.rejected": stats.admission_rejected,
        "queue.wait.ms": ms.get("queue.wait", 0.0),
        "queue.executed": stats.executed,
        "queue.executed_share": stats.executed / requests,
        "queue.coalesced": stats.coalesced,
        "queue.retries": stats.retries,
        "engine.statevector.ms": ms.get("engine.statevector", 0.0),
        "engine.trajectory.ms": ms.get("engine.trajectory", 0.0),
        "engine.classical.ms": ms.get("engine.classical", 0.0),
        "engine.permutation_ops": engine_attr("permutation_ops"),
        "engine.dense_ops": engine_attr("dense_ops"),
        "engine.amplitudes": engine_attr("amplitudes"),
        "engine.kernel_cache.new_entries": kernel_new,
        "serialize.ms": ms.get("serialize", 0.0),
        "serialize.bytes": mean_attr("serialize", "bytes"),
        "trace.overhead_ratio": overhead,
        "trace.coverage": summary["coverage"],
    })
    return declared("per_layer", metrics)


def shape_problems(workload, summary, stats, requests):
    """The shape each workload claims, asserted on the traced run."""
    totals, root = summary["totals_s"], summary["root_s"]
    if workload == "compile-cold":
        share = sum(totals.get(s, 0.0) for s in
                    ("optimize.pre", "optimize.post", "compile.route"))
        if share < 0.5 * root:
            return [f"optimizer + router hold {share / root:.2f} of "
                    "compile-cold request time, not most of it"]
    elif workload == "sim-heavy":
        share = sum(v for s, v in totals.items() if s.startswith("engine"))
        if share < 0.5 * root:
            return [f"the engine holds {share / root:.2f} of sim-heavy "
                    "request time, not most of it"]
    elif workload == "serve-hot":
        problems = []
        if stats.executed > 0.25 * requests:
            problems.append(f"serve-hot executed {stats.executed} of "
                            f"{requests} requests")
        if not stats.memory_hits or not stats.persistent_hits:
            problems.append("serve-hot needs memory and store hits, got "
                            f"{stats.memory_hits} / "
                            f"{stats.persistent_hits}")
        return problems
    return []


# -- main ------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and exit")
    parser.add_argument("--replay", type=int, default=None,
                        help="send exactly this many requests untraced, "
                             "print their summed scaled time and exit")
    args = parser.parse_args(argv)
    args.seed = W.workload_seed(args.seed)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    SCRATCH.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    spec, stream, store_root, queue = setup(
        args.workload, args.seed, SCRATCH,
        runner=tracer.runner if tracer is not None else None,
    )
    setup_s = time.perf_counter() - _START
    setup_s *= gauge.scale(gauge.reading())
    if args.setup_only or args.replay is not None:
        value = setup_s
        if args.replay is not None:
            value = run_phase(queue, stream, args.seconds,
                              count=args.replay).busy
        queue.shutdown()
        _remove(store_root)
        print(value)
        return 0

    kernels_before = kernel_cache_stats()
    if tracer is not None:
        tracer.install()
    try:
        phase = run_phase(queue, stream, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    kernel_new = sum(kernel_cache_stats().values()) - sum(
        kernels_before.values()
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    queue.shutdown()
    stats, cache_stats = queue.stats_snapshot(), queue.cache.stats
    store_stats = queue.store.stats
    records = phase.records

    overhead = None
    if tracer is not None:
        untraced_busy, = elsewhere(args, f"--replay={len(records)}")
        overhead = phase.busy / untraced_busy

    setups = [setup_s]
    checker = Checker()
    failed, problems = check_records(records, checker)
    fixed = set(spec.reference())
    served = [r.request for r in records if r.request not in fixed]
    other = [r for r in spec.stream((args.seed + 1) % W.SEED_LIMIT)
             [:len(records)] if r not in fixed]
    if shared_random_circuits(served, other):
        problems.append("seeds share random Clifford+T circuits")
    if tracer is not None:
        summary = span_summary(tracer.spans, {
            k: r.scaled / r.latency for k, r in enumerate(records)
        })
        problems += shape_problems(args.workload, summary, stats,
                                   len(records))
        metrics = per_layer(summary, stats, cache_stats, store_stats,
                            kernel_new, len(records), overhead)
    else:
        setups += elsewhere(args, "--setup-only", SETUP_REPEATS - 1)
        metrics = end_to_end(
            phase, statistics.median(setups), rss_mb, failed,
            compiled_totals(spec, checker),
        )
    _remove(store_root)
    problems += [f"DeprecationWarning: {w}" for w in MONITOR.seen]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    ok = [r for r in records if r.error is None]
    raw_p50 = statistics.median(1000.0 * r.latency for r in ok) if ok \
        else 0.0
    gauge_ms = statistics.median(v for _, v in phase.readings)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"requests={len(records)} completed={len(ok)} failed={failed} "
          f"wall={phase.wall:.2f}s raw_p50={raw_p50:.2f}ms "
          f"gauge={gauge_ms:.3f}ms "
          f"setups={[round(s, 3) for s in setups]} "
          f"executed={stats.executed} memory_hits={stats.memory_hits} "
          f"store_hits={stats.persistent_hits}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _remove(store_root: str) -> None:
    shutil.rmtree(store_root)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another store is still in use


if __name__ == "__main__":
    sys.exit(main())
