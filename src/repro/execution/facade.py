"""``execute()`` — the single entry point of the library.

One call covers the paper's whole experimental loop: build (or accept) a
circuit, push it through a :class:`CompilePipeline`, and run it on any
registered :class:`Backend` — optionally over a parameter sweep, sharded
across worker processes, with results memoised in an in-memory cache.

The target may be:

* a :class:`~repro.circuits.circuit.Circuit`,
* a :class:`~repro.toffoli.spec.ConstructionResult`,
* a registry name from :data:`repro.toffoli.CONSTRUCTIONS` (built with
  the keyword arguments / sweep parameters, e.g. ``num_controls=5``),
* any callable returning one of the above.

Sweeps are mappings of parameter name to an iterable of values; the
cartesian product is executed, and each returned result is tagged with
its sweep point in ``result.params``.  Parameter names matching run
options (``shots``, ``trials``, ``seed``, ``initial``) feed the backend;
everything else feeds the circuit builder.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from ..circuits.circuit import Circuit
from ..noise.model import NoiseModel
from ..qudits import Qudit
from ..resilience.deadlines import (
    Deadline,
    JobTimeoutError,
    resolve_deadline,
)
from ..resilience.faults import maybe_inject
from ..sim.state import StateVector
from ..toffoli.registry import CONSTRUCTIONS, build_toffoli
from ..toffoli.spec import ConstructionResult
from .backends import Backend, check_run_options, resolve_backend
from .cache import DEFAULT_CACHE, ResultCache, circuit_fingerprint
from .pipeline import CompilePipeline
from .pipeline_spec import PipelineSpec
from .results import FidelityResult, RunResult

ExecuteTarget = (
    Circuit
    | ConstructionResult
    | str
    | Callable[..., "Circuit | ConstructionResult"]
)

#: Sweep parameter names routed to the backend run, not the builder.
RUN_PARAMS = frozenset({"shots", "trials", "seed", "initial"})

#: Seed-derivation stride: trajectory shard ``i`` of a run seeded ``s``
#: draws from ``s * _SEED_STRIDE + i`` (sweep point ``i`` likewise), so
#: parallel runs are repeatable for a fixed seed and worker count.
_SEED_STRIDE = 1_000_003


def resolve_pipeline(
    spec: "CompilePipeline | PipelineSpec | None",
) -> CompilePipeline | None:
    """Accept a pipeline, a :class:`PipelineSpec`, or None.

    Pipeline names are resolved where text comes in (the CLI's
    ``--pipeline``, the serve protocol's ``pipeline`` field) through
    :meth:`PipelineSpec.from_name`; a bare string here is a
    ``TypeError``.
    """
    if spec is None or isinstance(spec, CompilePipeline):
        return spec
    if isinstance(spec, PipelineSpec):
        return spec.build()
    if isinstance(spec, str):
        raise TypeError(
            f"pipeline names are not accepted here; pass "
            f"PipelineSpec.from_name({spec!r})"
        )
    raise TypeError(
        f"cannot resolve a pipeline from {type(spec).__name__}"
    )


def _build_target(
    target: ExecuteTarget,
    builder_params: Mapping,
    prefer_undecomposed: bool = False,
) -> tuple[Circuit, list[Qudit] | None]:
    """Materialise the target circuit and its preferred wire order.

    ``prefer_undecomposed`` is set for classical-only backends: named
    constructions are built at permutation-gate granularity (the paper's
    linear-time verification path) when the builder supports it and the
    caller did not choose explicitly.
    """
    if isinstance(target, str):
        params = dict(builder_params)
        info = CONSTRUCTIONS.get(target)  # unknown: build_toffoli raises
        if prefer_undecomposed and info is not None and info.takes_decompose:
            params.setdefault("decompose", False)
        built: object = build_toffoli(target, **params)
    elif callable(target) and not isinstance(
        target, (Circuit, ConstructionResult)
    ):
        built = target(**dict(builder_params))
    else:
        if builder_params:
            raise TypeError(
                "builder parameters "
                f"{sorted(builder_params)} were given but the target is "
                "already a concrete circuit"
            )
        built = target
    if isinstance(built, ConstructionResult):
        return built.circuit, built.all_wires
    if isinstance(built, Circuit):
        return built, None
    raise TypeError(
        f"cannot execute object of type {type(built).__name__}"
    )


def materialize_target(
    target: ExecuteTarget,
    builder_params: Mapping | None = None,
    *,
    prefer_undecomposed: bool = False,
) -> tuple[Circuit, list[Qudit] | None]:
    """Public form of the facade's target resolution.

    Builds the concrete circuit (and its preferred wire order, when the
    target is a named construction) exactly the way :func:`execute`
    would — the serving layer uses this at submit time so a job's
    coalescing key can be derived from the circuit's canonical
    fingerprint before any worker picks it up.
    """
    return _build_target(
        target, dict(builder_params or {}),
        prefer_undecomposed=prefer_undecomposed,
    )


def run_identity(
    *,
    fingerprint: str,
    backend: Backend,
    noise_model: NoiseModel | None,
    wires: tuple[Qudit, ...] | None = None,
    initial: "StateVector | tuple[int, ...] | None" = None,
    shots: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> tuple | None:
    """Everything that decides one fully resolved run's result.

    The result cache keys on it (:func:`result_cache_key`) and the job
    queue coalesces identical in-flight submissions on it.  None for a
    ``StateVector`` initial, which has no stable serialized identity.
    """
    if isinstance(initial, StateVector):
        return None
    # Backend instances may carry their own noise model (e.g. a
    # TrajectoryBackend constructed directly); key on the model actually
    # used, not just the execute() argument.
    model = getattr(backend, "noise_model", None) or noise_model
    noise = model.name if model is not None else None
    return (
        fingerprint, backend.name, noise, wires, initial, shots, trials, seed,
    )


def result_cache_key(
    identity: tuple | None,
    *,
    backend: Backend,
    shots: int | None,
    seed: int | None,
) -> tuple | None:
    """The result-cache key of a run with this :func:`run_identity`.

    The identity itself, or None when the run must not be cached:
    unseeded stochastic runs are not reproducible, and a run without an
    identity has no stable key.  The serving layer shares this function
    so facade users and service jobs hit the same cache lines.
    """
    stochastic = backend.capabilities.supports_trials or shots
    if stochastic and seed is None:
        return None
    return identity


@dataclass(frozen=True)
class _Task:
    """One unit of work, in-process or for the process pool.

    In-process runs execute ``circuit`` directly.  Before a task is
    handed to a worker process, :func:`_serialized` swaps the object
    for its canonical JSON form (``circuit_data``): workers rebuild the
    circuit through the gate registry, so what crosses the process
    boundary is the same wire format ``circuit save/load`` writes to
    disk — not a pickled object graph — and it stays stable across
    refactors of the gate classes.
    """

    circuit: Circuit | None
    backend: str | Backend
    noise_model: NoiseModel | None
    wires: tuple[Qudit, ...] | None
    initial: StateVector | tuple[int, ...] | None
    shots: int | None
    trials: int | None
    seed: int | None
    params: tuple[tuple[str, object], ...]
    #: (point index, shard index) for deterministic reassembly.
    point: int
    shard: int
    #: Canonical circuit digest; filled only when caching is on.
    fingerprint: str | None = None
    #: Serialized form, filled by :func:`_serialized` for pool dispatch.
    circuit_data: str | None = None


def _serialized(task: _Task) -> _Task:
    """The task with its circuit lowered to the serialized wire form."""
    if task.circuit is None:
        return task
    return replace(
        task, circuit=None, circuit_data=task.circuit.to_json()
    )


def _run_task(task: _Task) -> RunResult:
    backend = resolve_backend(task.backend, task.noise_model)
    circuit = (
        task.circuit
        if task.circuit is not None
        else Circuit.from_json(task.circuit_data)
    )
    result = backend.run(
        circuit,
        wires=list(task.wires) if task.wires is not None else None,
        initial=task.initial,
        shots=task.shots,
        trials=task.trials,
        seed=task.seed,
    )
    return result.with_params(dict(task.params))


def _cache_key(task: _Task, backend: Backend) -> tuple | None:
    """A hashable cache key, or None when the run must not be cached."""
    if task.fingerprint is None:
        return None
    identity = run_identity(
        fingerprint=task.fingerprint,
        backend=backend,
        noise_model=task.noise_model,
        wires=task.wires,
        initial=task.initial,
        shots=task.shots,
        trials=task.trials,
        seed=task.seed,
    )
    return result_cache_key(
        identity, backend=backend, shots=task.shots, seed=task.seed
    )


def execute(
    target: ExecuteTarget,
    *,
    backend: str | Backend = "statevector",
    pipeline: CompilePipeline | PipelineSpec | None = None,
    optimize: "bool | str | Sequence | object | None" = None,
    noise_model: NoiseModel | None = None,
    wires: Sequence[Qudit] | None = None,
    initial: StateVector | Sequence[int] | None = None,
    shots: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
    sweep: Mapping[str, Iterable] | None = None,
    parallel: bool = False,
    workers: int = 4,
    cache: bool | ResultCache = False,
    timeout: "float | Deadline | None" = None,
    **build_kwargs,
) -> RunResult | list[RunResult]:
    """Compile and run a circuit (or a sweep of circuits) on a backend.

    Returns one :class:`RunResult` without ``sweep``, else a list with
    one result per sweep point (cartesian order).  With ``parallel=True``
    sweep points run across a process pool; on the trajectory backend
    each point's trials are additionally sharded and exactly merged, so
    parallel results match serial runs in distribution for a fixed
    ``seed``.  ``shots`` on a backend that does not sample, ``trials`` on one that
    runs no trajectories, or either below 1 (at the top level or in any
    sweep point) raises ``ValueError`` before anything is built.  With
    ``shots``, a statevector result carries the counts and no state.
    ``cache=True`` memoises deterministic results in the
    process-wide :data:`~repro.execution.cache.DEFAULT_CACHE` (pass a
    :class:`ResultCache` to use your own); entries are keyed on the
    circuit's canonical identity
    (:func:`~repro.execution.cache.circuit_fingerprint`), so two
    structurally equal circuits share a cache line no matter how they
    were built.  Worker processes receive circuits as serialized specs
    (:meth:`Circuit.to_json`) and rebuild them through the gate
    registry.

    ``optimize`` runs the :mod:`repro.optimize` rewrite engine on each
    compiled circuit before execution: ``True`` uses the default pass
    set, a string or sequence names passes (see
    :func:`~repro.optimize.resolve_engine`), and a
    :class:`~repro.optimize.RewriteEngine` passes through.  The cache
    fingerprint is taken from the *optimized* circuit, so an optimized
    run shares cache lines with any structurally equal optimized
    circuit, never with its unoptimized form.

    ``timeout`` is a cooperative budget in seconds (or a
    :class:`~repro.resilience.Deadline`): it is checked between sweep
    tasks and while waiting on process shards, and raises the typed
    :class:`~repro.resilience.JobTimeoutError` when it expires.
    Nothing is killed mid-flight — a single task that overruns still
    completes, and a run that finishes just past its deadline still
    returns (completion wins the race).
    """
    from ..optimize import resolve_engine

    deadline = resolve_deadline(timeout)
    pipeline = resolve_pipeline(pipeline)
    engine = resolve_engine(optimize)
    backend_spec = backend
    probe = resolve_backend(backend_spec, noise_model)
    # Note: an empty ResultCache is falsy (len 0), so test identity/type
    # rather than truthiness.
    cache_store: ResultCache | None
    if isinstance(cache, ResultCache):
        cache_store = cache
    else:
        cache_store = DEFAULT_CACHE if cache else None

    # -- expand sweep points -------------------------------------------
    if sweep:
        names = list(sweep)
        points = [
            dict(zip(names, values))
            for values in product(*(list(sweep[n]) for n in names))
        ]
    else:
        points = [{}]
    for point in points:
        check_run_options(
            probe,
            shots=point.get("shots", shots),
            trials=point.get("trials", trials),
        )

    # -- build + compile every point up front --------------------------
    tasks: list[_Task] = []
    compile_notes: list[dict] = []
    for index, point in enumerate(points):
        run_overrides = {k: v for k, v in point.items() if k in RUN_PARAMS}
        builder_params = dict(build_kwargs)
        builder_params.update(
            {k: v for k, v in point.items() if k not in RUN_PARAMS}
        )
        circuit, preferred_wires = _build_target(
            target,
            builder_params,
            prefer_undecomposed=probe.capabilities.classical_circuits_only,
        )

        note: dict = {}
        if pipeline is not None:
            compiled = pipeline.compile(circuit)
            circuit = compiled.circuit
            note = {
                "pipeline": pipeline.name,
                "passes": compiled.pass_names,
                "compiled_depth": compiled.depth,
                "compiled_operations": compiled.num_operations,
            }
            # Routing re-hosts logical wires on physical sites, so any
            # wire order inferred from the construction is stale.
            if set(circuit.all_qudits()) != set(
                preferred_wires or circuit.all_qudits()
            ):
                preferred_wires = None
        if engine is not None:
            circuit, opt_report = engine.run(circuit)
            note.update(
                optimize_passes=tuple(p.name for p in engine.passes),
                optimize_gates_removed=opt_report.gates_removed,
                optimize_depth_removed=opt_report.depth_removed,
                optimize_iterations=opt_report.iterations,
            )
            if opt_report.verified is not None:
                note["optimize_verified"] = opt_report.verified
        compile_notes.append(note)

        point_wires = wires if wires is not None else preferred_wires
        point_seed = (
            seed
            if seed is None or not sweep
            else seed * _SEED_STRIDE + index
        )
        point_seed = run_overrides.get("seed", point_seed)
        point_initial = run_overrides.get("initial", initial)
        if not isinstance(point_initial, (StateVector, type(None))):
            point_initial = tuple(point_initial)
        tasks.append(
            _Task(
                circuit=circuit,
                fingerprint=(
                    circuit_fingerprint(circuit)
                    if cache_store is not None
                    else None
                ),
                backend=backend_spec,
                noise_model=noise_model,
                wires=tuple(point_wires) if point_wires is not None else None,
                initial=point_initial,
                shots=run_overrides.get("shots", shots),
                trials=run_overrides.get("trials", trials),
                seed=point_seed,
                params=tuple(sorted(point.items())),
                point=index,
                shard=0,
            )
        )

    # -- run ------------------------------------------------------------
    results = _run_tasks(
        tasks, probe, parallel=parallel, workers=workers,
        cache=cache_store, deadline=deadline,
    )
    for index, note in enumerate(compile_notes):
        if note:
            results[index] = replace(
                results[index],
                metadata={**results[index].metadata, **note},
            )
    if not sweep:
        return results[0]
    return results


def _shard_tasks(task: _Task, workers: int) -> list[_Task]:
    """Split one trajectory task into per-worker shards (seeded)."""
    from .backends import TrajectoryBackend

    trials = (
        task.trials
        if task.trials is not None
        else TrajectoryBackend.default_trials
    )
    if task.seed is None or workers <= 1 or trials < 2 * workers:
        return [task]
    base, extra = divmod(trials, workers)
    return [
        replace(
            task,
            trials=base + (1 if index < extra else 0),
            seed=task.seed * _SEED_STRIDE + index,
            shard=index,
        )
        for index in range(workers)
    ]


def _run_tasks(
    tasks: list[_Task],
    probe: Backend,
    *,
    parallel: bool,
    workers: int,
    cache: ResultCache | None,
    deadline: Deadline | None = None,
) -> list[RunResult]:
    shards_trials = probe.capabilities.supports_trials
    results: dict[int, RunResult] = {}
    pending: list[_Task] = []
    keys: dict[int, tuple] = {}

    for task in tasks:
        key = _cache_key(task, probe) if cache is not None else None
        if key is not None:
            keys[task.point] = key
            hit = cache.get(key)
            if hit is not None:
                results[task.point] = hit.with_params(dict(task.params))
                continue
        pending.append(task)

    if pending:
        if parallel and shards_trials:
            # Serialize once per task; shards share the JSON string.
            expanded = [
                shard
                for task in map(_serialized, pending)
                for shard in _shard_tasks(task, workers)
            ]
        else:
            expanded = pending
        if parallel and (len(expanded) > 1):
            raw = _run_pool(expanded, workers, deadline)
        else:
            raw = []
            for task in expanded:
                # Cooperative deadline: checked *between* tasks, so a
                # task that overruns still completes.
                if deadline is not None:
                    deadline.check("execute")
                maybe_inject("facade.task")
                raw.append(_run_task(task))

        by_point: dict[int, list[RunResult]] = {}
        for task, result in zip(expanded, raw):
            by_point.setdefault(task.point, []).append(result)
        for task in pending:
            group = by_point[task.point]
            if len(group) == 1:
                merged = group[0]
            else:
                merged = FidelityResult.merge(group)  # trajectory shards
                merged = replace(merged, seed=task.seed)
            results[task.point] = merged
            key = keys.get(task.point)
            if key is not None and cache is not None:
                cache.put(key, merged)

    return [results[index] for index in range(len(tasks))]


def _run_pool(
    expanded: list[_Task],
    workers: int,
    deadline: Deadline | None,
) -> list[RunResult]:
    """Run tasks across a process pool, honouring the deadline while
    waiting on shards.

    The ``facade.task`` chaos site fires in the parent per dispatched
    task (worker processes have no ambient injector).  On expiry,
    not-yet-started shards are cancelled, running ones are left to
    finish in the background (cooperative semantics: nothing is killed
    mid-flight), and the typed :class:`JobTimeoutError` is raised.
    """
    serialized = [_serialized(task) for task in expanded]
    for _ in serialized:
        maybe_inject("facade.task")
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_run_task, task) for task in serialized]
        raw: list[RunResult] = []
        for future in futures:
            budget = (
                deadline.remaining() if deadline is not None else None
            )
            if budget is not None and budget <= 0.0:
                raise JobTimeoutError(
                    "deadline expired while waiting on process shards"
                )
            try:
                raw.append(future.result(timeout=budget))
            except FuturesTimeoutError:
                raise JobTimeoutError(
                    "deadline expired while waiting on process shards"
                ) from None
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return raw
