"""Spans around the public entry points of each layer, from outside ``src``.

:class:`Tracer` patches the entry points listed in :data:`PATCHES` with
timing wrappers for the duration of the traced phase and restores them
afterwards; the untraced phase runs with nothing installed.  A span
records name, start, end, its parent and the id of the request it
belongs to.  Client-thread spans find their parent through a context
variable; work a ``JobQueue`` worker does for a request (the engine run
and the write-through ``cache.put`` / ``store.put`` after it) is tied
back to the request through the circuit object ``AdmissionPolicy.review``
saw at submit time.

Layer self time is a span's duration minus the part of it that its
child spans cover.  :func:`span_summary` aggregates them per layer,
scaling each span to the gauge's reference speed by its request's
factor.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import time
from dataclasses import dataclass, field

from repro.arch.router import LookaheadRouter
from repro.execution import passes as compile_passes
from repro.execution.cache import ResultCache
from repro.optimize.passes import RewritePass
from repro.resilience.degradation import AdmissionPolicy
from repro.service import queue as service_queue
from repro.service.queue import default_runner
from repro.service.store import ResultStore

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "reqbench_span", default=None
)

#: Spans whose metric is their inclusive duration (they contain the
#: spans of the passes or lookups they drive); every other layer
#: metric is self time.
INCLUSIVE = frozenset({
    "compile.decompose", "compile.route", "compile.schedule",
    "optimize.pre", "optimize.post", "cache.lookup",
})

_STAGE_SPANS = {
    "DecomposeToWidth2": "compile.decompose",
    "RouteToTopology": "compile.route",
    "ASAPReschedule": "compile.schedule",
    "MergeMoments": "compile.schedule",
}
_OPTIMIZE_SLOTS = {"pre-route": "optimize.pre", "post-route": "optimize.post"}


@dataclass
class Span:
    request: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; install/uninstall patch the layers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        #: id(final circuit) -> (request id, root span id), for worker
        #: threads.
        self._owner: dict[int, tuple[int, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, start: float | None = None) -> Span | None:
        current = _CURRENT.get()
        if current is None:
            return None
        request, parent = current
        span = Span(request, next(self._ids), parent, name,
                    time.perf_counter() if start is None else start)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def request(self, request_id: int):
        """The root span of one request, current inside the block."""
        span = Span(request_id, next(self._ids), None, "request",
                    time.perf_counter())
        self.spans.append(span)
        token = _CURRENT.set((request_id, span.span_id))
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _CURRENT.reset(token)

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (e.g. queue wait)."""
        span = self._open(name, start)
        if span is not None:
            span.end = end

    def timed(self, name, function, *args, **kwargs):
        """Call ``function`` inside a span; returns (result, span)."""
        span = self._open(name)
        if span is None:
            return function(*args, **kwargs), None
        token = _CURRENT.set((span.request, span.span_id))
        try:
            return function(*args, **kwargs), span
        finally:
            span.end = time.perf_counter()
            _CURRENT.reset(token)

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, name, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            out, span = tracer.timed(label, original, *args, **kwargs)
            if span is not None and after is not None:
                after(tracer, span, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name, after in PATCHES:
            self._patch(owner, attr, name, after)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def runner(self, request):
        """``JobQueue`` runner: ``default_runner`` inside an engine span.

        Runs on a worker thread; the context set here stays until the
        next run, so the write-through after the run is attributed to
        the same request.
        """
        owner = self._owner.get(id(request.circuit))
        if owner is not None:
            _CURRENT.set(owner)
        result, span = self.timed(f"engine.{request.backend}",
                                  default_runner, request)
        if span is not None:
            permutation = sum(
                1 for op in request.circuit.all_operations()
                if op.gate.is_classical
            )
            amplitudes = 1
            for wire in request.wires or request.circuit.all_qudits():
                amplitudes *= wire.dimension
            span.attrs.update(
                permutation_ops=permutation,
                dense_ops=request.circuit.num_operations - permutation,
                amplitudes=amplitudes,
            )
        return result


# -- after-hooks: counters read where the work happened -----------------


def _stage_out(tracer, span, args, out) -> None:
    span.attrs.update(ops_out=out.num_operations, depth_out=out.depth)
    meta = args[0].last_metadata
    if "swap_count" in meta:
        span.attrs["swaps"] = meta["swap_count"]


def _optimize_out(tracer, span, args, out) -> None:
    report = args[0].last_report
    tried = [s for s in report.pass_stats if s.applications]
    span.attrs.update(
        iterations=report.iterations,
        applications=sum(s.applications for s in report.pass_stats),
        tried=len(tried),
        accepted=sum(1 for s in tried if s.accepted),
    )


def _admission_out(tracer, span, args, out) -> None:
    tracer._owner[id(args[1])] = (span.request, span.parent)


def _store_put_out(tracer, span, args, out) -> None:
    if out:
        store, key = args[0], args[1]
        span.attrs["bytes"] = store.path_for(key).stat().st_size


def _stage_name(args) -> str:
    stage = args[0]
    if isinstance(stage, compile_passes.OptimizePass):
        label = stage.name.removeprefix("Optimize[").removesuffix("]")
        return _OPTIMIZE_SLOTS.get(label, f"optimize.{label}")
    return _STAGE_SPANS.get(type(stage).__name__,
                            f"compile.{type(stage).__name__}")


def _stage_after(tracer, span, args, out) -> None:
    if isinstance(args[0], compile_passes.OptimizePass):
        _optimize_out(tracer, span, args, out)
    _stage_out(tracer, span, args, out)


def _compile_pass_classes():
    pending = [compile_passes.CompilePass]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "transform" in cls.__dict__ and cls is not \
                compile_passes.CompilePass:
            yield cls


#: (owner, attribute, span name or name(args), after-hook).  The queue
#: imported ``materialize_target`` and ``circuit_fingerprint`` by name,
#: so they are patched where ``submit`` looks them up.
PATCHES = [
    (service_queue, "materialize_target", "build", None),
    (service_queue, "circuit_fingerprint", "fingerprint", None),
    *[(cls, "transform", _stage_name, _stage_after)
      for cls in _compile_pass_classes()],
    (RewritePass, "run", lambda args: f"optimize.{args[0].name}", None),
    (LookaheadRouter, "route", "route", None),
    (AdmissionPolicy, "review", "admission", _admission_out),
    (ResultCache, "get_with_source", "cache.lookup", None),
    (ResultCache, "put", "cache.put", None),
    (ResultStore, "get", "store.get", None),
    (ResultStore, "put", "store.put", _store_put_out),
]


# -- aggregation -----------------------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals
        if b > start and a < end
    )
    total, reach = 0.0, start
    for a, b in clipped:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.span_id: (span.end - span.start) - _covered(
            span.start, span.end, children.get(span.span_id, ())
        )
        for span in spans
    }


def span_summary(spans: list[Span], factors: dict[int, float]) -> dict:
    """Per-layer time (ms, mean per request reaching the layer; and
    seconds in total), span counts, attribute sums and trace coverage.

    Every span's time is multiplied by its request's factor in
    ``factors``, which takes it to the gauge's reference speed.
    """
    own = self_times(spans)
    per_request: dict[str, dict[int, float]] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, dict[str, float]] = {}
    root_total = layer_total = 0.0
    for span in spans:
        factor = factors[span.request]
        if span.name == "request":
            root_total += factor * (span.end - span.start)
            continue
        layer_total += factor * own[span.span_id]
        value = factor * (
            (span.end - span.start) if span.name in INCLUSIVE
            else own[span.span_id]
        )
        bucket = per_request.setdefault(span.name, {})
        bucket[span.request] = bucket.get(span.request, 0.0) + value
        calls[span.name] = calls.get(span.name, 0) + 1
        sums = attrs.setdefault(span.name, {})
        for key, number in span.attrs.items():
            sums[key] = sums.get(key, 0.0) + number
    return {
        "ms": {
            name: 1000.0 * sum(values.values()) / len(values)
            for name, values in per_request.items()
        },
        "calls": calls,
        "attrs": attrs,
        "root_s": root_total,
        "coverage": layer_total / root_total if root_total else 0.0,
        "totals_s": {
            name: sum(values.values())
            for name, values in per_request.items()
        },
    }
