"""The JobQueue's compiled-circuit memo.

A ``PipelineSpec`` submission whose built input and spec were compiled
on the queue before reuses that compiled circuit.  These tests pin what
the runner is handed on a hit (the same circuit a fresh compile gives),
that the key is exact about operation order and barriers, that traffic
which never repeats stores nothing, and the counters.

A capturing runner records every ``request.circuit``; each submit uses
its own ``seed``, so no result-cache hit or coalescing hides a submit
from the runner.
"""

from __future__ import annotations

import itertools
import threading

import pytest

from repro.circuits.circuit import Circuit
from repro.execution.cache import circuit_fingerprint
from repro.execution.pipeline_spec import PipelineSpec
from repro.execution.results import RunResult
from repro.gates.qubit import CNOT
from repro.gates.qutrit import level_swap
from repro.interop.workloads import ripple_carry_adder
from repro.qudits import qubits
from repro.service import JobQueue
from repro.service import queue as queue_module
from repro.toffoli.registry import build_toffoli
from tests.arch.test_compile_golden import cases, workloads

LINE = PipelineSpec.from_name("hardware-line-opt")
GRID = PipelineSpec.from_name("hardware-grid-opt")


class _CapturingRunner:
    """Records the circuit of every request; returns a stub result."""

    def __init__(self):
        self.circuits: list[Circuit] = []
        self._lock = threading.Lock()

    def __call__(self, request):
        with self._lock:
            self.circuits.append(request.circuit)
        return RunResult(backend="classical", wires=tuple(qubits(1)),
                         values=(0,))


_SEEDS = itertools.count(1)


def _serve(queue, runner, target, pipeline, **kwargs) -> Circuit:
    """Submit once and return the circuit the runner was handed."""
    queue.submit(target, backend="classical", pipeline=pipeline,
                 seed=next(_SEEDS), **kwargs).result(timeout=60)
    return runner.circuits[-1]


def _fresh(circuit: Circuit, spec: PipelineSpec) -> str:
    return spec.build().compile(circuit).circuit.to_json()


def _moments(circuit: Circuit, reverse=False, barrier_at=None) -> Circuit:
    """The same moments, optionally with each moment's operations
    reversed or a barrier before moment ``barrier_at``."""
    out = Circuit()
    for index, moment in enumerate(circuit.moments):
        if index == barrier_at:
            out.barrier()
        ops = list(moment.operations)
        out.append_moment(ops[::-1] if reverse else ops)
    return out


def _prepared(name: str, num_controls: int) -> Circuit:
    """A construction with every control prepared in |1> in-circuit."""
    built = build_toffoli(name, num_controls)
    prep = Circuit([
        level_swap(wire.dimension, 0, 1).on(wire) for wire in built.controls
    ])
    return prep + built.circuit


def _assert_hit_parity(pairs) -> None:
    """Three submits per (builder, spec): the first two compile (the
    second stores), the third is a hit; each hands the runner the
    circuit a fresh compile gives."""
    runner = _CapturingRunner()
    with JobQueue(workers=1, runner=runner) as queue:
        for build, spec in pairs:
            expected = _fresh(build(), spec)
            hits = queue.stats.compile_memo_hits
            served = [_serve(queue, runner, build, spec) for _ in range(3)]
            assert queue.stats.compile_memo_hits == hits + 1
            assert [c.to_json() for c in served] == [expected] * 3
            assert served[2] is served[1]  # the stored circuit
        stats = queue.stats_snapshot()
    assert stats.compile_memo_misses == 2 * len(pairs)
    assert stats.executed == 3 * len(pairs)


class TestHitParity:
    def test_small_cases(self):
        _assert_hit_parity([
            (lambda: ripple_carry_adder(2), LINE),
            (lambda: _prepared("qutrit_tree", 3), GRID),
        ])

    @pytest.mark.slow
    def test_every_golden_case(self):
        built = workloads()
        _assert_hit_parity([
            (built[key][1], PipelineSpec.from_name(pipeline))
            for key, pipeline in cases()
        ])

    @pytest.mark.slow
    def test_every_hardware_construction_shape(self):
        # The serving catalog's compiled shapes: the Fig. 9/10
        # constructions at N 3-5, every control prepared active,
        # through both hardware pipelines.
        _assert_hit_parity([
            (lambda name=name, n=n: _prepared(name, n), spec)
            for name in ("qutrit_tree", "qubit_one_dirty",
                         "qubit_ancilla_free")
            for n in (3, 4, 5)
            for spec in (LINE, GRID)
        ])

    def test_hit_reuses_the_stored_fingerprint(self, monkeypatch):
        runner = _CapturingRunner()
        calls = []
        original = queue_module.circuit_fingerprint

        def counting(circuit):
            calls.append(circuit)
            return original(circuit)

        monkeypatch.setattr(queue_module, "circuit_fingerprint", counting)
        with JobQueue(workers=1, runner=runner) as queue:
            build = lambda: ripple_carry_adder(2)  # noqa: E731
            for _ in range(2):
                _serve(queue, runner, build, LINE)
            assert len(calls) == 2
            _serve(queue, runner, build, LINE)
            assert len(calls) == 2


class TestKeyExactness:
    """Inputs equal under ``circuit_fingerprint`` compile apart."""

    @staticmethod
    def _variants():
        base = _moments(ripple_carry_adder(2))
        return {
            "base": base,
            "reversed": _moments(base, reverse=True),
            "barrier": _moments(base, barrier_at=base.depth // 2),
        }

    def test_variants_share_fingerprint_not_digest(self):
        variants = self._variants()
        assert len({circuit_fingerprint(c) for c in variants.values()}) == 1
        assert len({c.build_digest() for c in variants.values()}) == 3
        assert variants["base"].build_digest() == _moments(
            variants["base"]
        ).build_digest()

    def test_variants_get_their_own_entries(self):
        variants = self._variants()
        expected = {name: _fresh(c, LINE) for name, c in variants.items()}
        # The probe is only meaningful if each variant compiles apart.
        assert len(set(expected.values())) == 3
        runner = _CapturingRunner()
        with JobQueue(workers=1, runner=runner) as queue:
            for _ in range(3):
                for name, circuit in variants.items():
                    served = _serve(queue, runner, circuit, LINE)
                    assert served.to_json() == expected[name]
            stats = queue.stats_snapshot()
            assert queue.describe()["compile_memo_entries"] == 3
        assert (stats.compile_memo_misses, stats.compile_memo_hits) == (6, 3)

    def test_spec_is_part_of_the_key(self):
        runner = _CapturingRunner()
        build = lambda: ripple_carry_adder(2)  # noqa: E731
        with JobQueue(workers=1, runner=runner) as queue:
            for spec in (LINE, LINE, GRID, GRID):
                _serve(queue, runner, build, spec)
            assert _serve(queue, runner, build, GRID).to_json() == \
                _fresh(build(), GRID)
            assert _serve(queue, runner, build, LINE).to_json() == \
                _fresh(build(), LINE)
            assert queue.stats.compile_memo_hits == 2


class TestAdmission:
    def test_distinct_traffic_stores_nothing(self):
        runner = _CapturingRunner()
        spec = PipelineSpec.from_name("lowering")
        with JobQueue(workers=1, runner=runner) as queue:
            for n in range(450):
                wires = qubits(9)
                circuit = Circuit([
                    level_swap(2, 0, 1).on(wire)
                    for bit, wire in enumerate(wires) if n >> bit & 1
                ] + [CNOT.on(wires[0], wires[1])])
                _serve(queue, runner, circuit, spec)
            info = queue.describe()
        assert info["compile_memo_entries"] == 0
        assert info["compile_memo_misses"] == 450
        assert info["compile_memo_hits"] == 0
        assert info["compile_memo_evictions"] == 0

    def test_built_pipeline_bypasses_the_memo(self):
        pipeline = LINE.build()
        compiles = []
        original = pipeline.compile

        def counting(circuit):
            compiles.append(circuit)
            return original(circuit)

        pipeline.compile = counting
        runner = _CapturingRunner()
        build = lambda: ripple_carry_adder(2)  # noqa: E731
        with JobQueue(workers=1, runner=runner) as queue:
            for _ in range(4):
                served = _serve(queue, runner, build, pipeline)
                assert served.to_json() == _fresh(build(), LINE)
            stats = queue.stats_snapshot()
        assert len(compiles) == 4
        assert (stats.compile_memo_hits, stats.compile_memo_misses) == (0, 0)

    def test_concurrent_submits_of_one_key(self):
        import sys

        build = lambda: _prepared("qubit_one_dirty", 3)  # noqa: E731
        expected = _fresh(build(), GRID)
        runner = _CapturingRunner()
        start = threading.Barrier(8)
        errors: list = []

        def work(slot):
            start.wait(timeout=10)
            try:
                for k in range(3):
                    queue.submit(build, backend="classical", pipeline=GRID,
                                 seed=1000 * slot + k).result(timeout=60)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobQueue(workers=2, runner=runner) as queue:
                threads = [threading.Thread(target=work, args=(slot,))
                           for slot in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                stats = queue.stats_snapshot()
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(runner.circuits) == 24
        assert {c.to_json() for c in runner.circuits} == {expected}
        assert stats.compile_memo_hits + stats.compile_memo_misses == 24
        assert stats.compile_memo_hits >= 1


class TestCounters:
    def test_evictions_keep_the_newest_entries(self, monkeypatch):
        monkeypatch.setattr(queue_module, "COMPILE_MEMO_ENTRIES", 2)
        runner = _CapturingRunner()
        builders = [
            lambda n=n: _prepared("qutrit_tree", n) for n in (3, 4, 5)
        ]
        with JobQueue(workers=1, runner=runner) as queue:
            for build in builders:
                for _ in range(2):
                    _serve(queue, runner, build, LINE)
            info = queue.describe()
            assert info["compile_memo_entries"] == 2
            assert info["compile_memo_evictions"] == 1
            # The oldest entry (N=3) was dropped: its next submit is a
            # first sighting again, the newest is still a hit.
            _serve(queue, runner, builders[2], LINE)
            _serve(queue, runner, builders[0], LINE)
            stats = queue.stats_snapshot()
        assert stats.compile_memo_hits == 1
        assert stats.compile_memo_misses == 7
        assert stats.to_dict()["compile_memo_evictions"] == 1

    def test_unpipelined_submits_never_touch_the_memo(self):
        with JobQueue(workers=1) as queue:
            queue.submit("qutrit_tree", num_controls=3, backend="classical",
                         initial=(1, 1, 1, 0)).result(timeout=60)
            info = queue.describe()
        assert info["compile_memo_hits"] == info["compile_memo_misses"] == 0
        assert info["compile_memo_entries"] == 0
