"""Gates are values: the process-wide intern table.

Builders derive every gate through the table, so a second build of a
construction reuses the first build's gate objects and derives nothing:
no matrix root, no new ``MatrixGate`` or ``ControlledGate``.  Shared
gates are immutable, keys are exact specs (never canonical ones), the
table is bounded, and gate ids stay in their process.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import linalg
from repro.gates import (
    CNOT,
    GATE_REGISTRY,
    SWAP,
    TOFFOLI,
    X01,
    ControlledGate,
    GateSpec,
    MatrixGate,
    PermutationGate,
    T,
    X,
    controlled,
    level_swap,
    root_power_gate,
    shift_gate,
)
from repro.gates import intern
from repro.gates.base import permutation_gate
from repro.gates.intern import interned_gate_count, spec_id
from repro.sim.kernels import clear_kernel_caches, kernel_cache_stats
from repro.toffoli.registry import CONSTRUCTIONS, build_toffoli

SRC = Path(repro.__file__).resolve().parent.parent

#: Derivation tags: keys of gates whose spec is their own matrix.
DERIVED = ("__inverse__", "__sqrt__", "__matrix__")


def _build_options() -> list[tuple[str, int, dict]]:
    """Every registered construction at N 3-5, decomposed and not."""
    out = []
    for name, info in sorted(CONSTRUCTIONS.items()):
        options = (True, False) if info.takes_decompose else (None,)
        for n in (3, 4, 5):
            for decompose in options:
                kwargs = {} if decompose is None else {"decompose": decompose}
                out.append((name, n, kwargs))
    return out


BUILDS = _build_options()


def _gates(name, n, kwargs):
    circuit = build_toffoli(name, n, **kwargs).circuit
    return [op.gate for op in circuit.all_operations()]


class TestSharedGatesAreImmutable:
    def test_set_spec_raises_on_an_interned_gate(self):
        gate = level_swap(3, 0, 2)
        assert gate._key is not None
        with pytest.raises(TypeError, match="immutable"):
            gate._set_spec(GateSpec("level_swap", (1, 2), (3,)))
        assert gate.spec() == GateSpec("level_swap", (0, 2), (3,))

    def test_set_spec_still_works_on_a_fresh_gate(self):
        gate = PermutationGate([1, 0, 2], (3,), "mine")
        assert gate._set_spec(GateSpec("level_swap", (0, 1), (3,))) is gate
        assert gate.spec().name == "level_swap"

    def test_importing_gates_registers_the_constants(self):
        for name, gate in (
            ("TOFFOLI", TOFFOLI), ("CNOT", CNOT), ("SWAP", SWAP),
            ("T", T), ("X", X),
        ):
            assert gate.spec() == GateSpec(name, (), gate.dims)
            assert GATE_REGISTRY.build(gate.spec()) is gate
            with pytest.raises(TypeError):
                gate._set_spec(GateSpec("X", (), gate.dims))


class TestKeysAreExact:
    def test_canonical_equal_gates_intern_apart(self):
        swap = level_swap(3, 0, 1)
        hand_built = permutation_gate([1, 0, 2], (3,), "X01")
        assert hand_built is not swap
        assert hand_built == swap == X01  # canonical specs agree
        assert spec_id(hand_built) == spec_id(swap)
        assert hand_built.spec().to_json() != swap.spec().to_json()
        assert swap.spec().to_json() == X01.spec().to_json()
        assert permutation_gate([1, 0, 2], (3,), "X01") is hand_built
        assert level_swap(3, 0, 1) is swap

    def test_non_int_parameters_are_never_shared(self):
        flagged = level_swap(3, False, True)
        assert flagged is not X01
        assert flagged._key is None
        assert flagged.spec().to_json() == (
            '{"dims":[3],"name":"level_swap","params":[false,true]}'
        )
        assert X01.spec().to_json() == (
            '{"dims":[3],"name":"level_swap","params":[0,1]}'
        )

    @pytest.mark.parametrize("name,n,kwargs", BUILDS[::2])
    def test_keys_mirror_the_spec(self, name, n, kwargs):
        def mirrors(key, spec):
            if key[0] in DERIVED:
                return True
            if key[0] != spec.name or tuple(key[2]) != spec.dims:
                return False
            if len(key[1]) != len(spec.params):
                return False
            for part, param in zip(key[1], spec.params):
                if isinstance(param, GateSpec):
                    if not mirrors(part, param):
                        return False
                elif type(part) is not type(param) or part != param:
                    return False
            return True

        for gate in _gates(name, n, kwargs):
            assert gate._key is not None, gate
            assert mirrors(gate._key, gate.spec()), gate._key


class TestSecondBuildDerivesNothing:
    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"matrix_root": 0, "MatrixGate": 0, "ControlledGate": 0}
        original_root = linalg.matrix_root

        def counted_root(*args, **kwargs):
            calls["matrix_root"] += 1
            return original_root(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "matrix_root", None) is original_root
            ):
                monkeypatch.setattr(module, "matrix_root", counted_root)
        for cls in (MatrixGate, ControlledGate):
            original_init = cls.__init__

            def counted_init(self, *args, _cls=cls, _init=original_init,
                             **kwargs):
                calls[_cls.__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        return calls

    @pytest.mark.parametrize("name,n,kwargs", BUILDS)
    def test_second_build_reuses_every_gate(self, counts, name, n, kwargs):
        clear_kernel_caches()
        first = _gates(name, n, kwargs)
        if name in ("qutrit_tree", "qubit_ancilla_free") and n > 2 \
                and kwargs.get("decompose", True):
            assert counts["matrix_root"] > 0
        for key in counts:
            counts[key] = 0
        second = _gates(name, n, kwargs)
        assert counts == {
            "matrix_root": 0, "MatrixGate": 0, "ControlledGate": 0,
        }
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))

    def test_uncompute_reuses_the_cached_inverse(self):
        gate = controlled(shift_gate(3, 1), (1,), (3,))
        assert gate.inverse() is gate.inverse()
        assert gate.inverse() is controlled(shift_gate(3, 2), (1,), (3,))
        root = root_power_gate(X01, 1, 3, "X01^(1/3)")
        assert root.inverse() is root_power_gate(X01, -1, 3, "X01^(1/3)^-1")


class TestTableBounds:
    def test_stats_report_the_table(self):
        clear_kernel_caches()
        assert kernel_cache_stats()["interned_gates"] == 0
        build_toffoli("qutrit_tree", 4)
        assert kernel_cache_stats()["interned_gates"] == interned_gate_count()
        assert interned_gate_count() > 0

    def test_clear_empties_the_table_and_keeps_ids(self):
        before = root_power_gate(X01, 1, 3, "X01^(1/3)")
        gate_id = spec_id(before)
        clear_kernel_caches()
        assert interned_gate_count() == 0
        after = root_power_gate(X01, 1, 3, "X01^(1/3)")
        assert after is not before
        assert after.spec() == before.spec()
        assert spec_id(after) == gate_id
        # A dropped gate stays shared, immutable and usable.
        assert before._key == after._key
        with pytest.raises(TypeError):
            before._set_spec(before.spec())

    def test_table_never_exceeds_its_cap(self, monkeypatch):
        clear_kernel_caches()
        monkeypatch.setattr(intern, "INTERN_TABLE_ENTRIES", 8)
        for n in (3, 4, 5):
            build_toffoli("qutrit_tree", n)
            assert interned_gate_count() <= 8
        gates = [shift_gate(7, k) for k in range(1, 7)]
        assert interned_gate_count() <= 8
        assert [g.spec().params for g in gates] == [(k,) for k in range(1, 7)]
        clear_kernel_caches()


def _race(work, threads_n: int = 8) -> list:
    """``work()`` on ``threads_n`` threads released together; results."""
    results: list = [None] * threads_n
    start = threading.Barrier(threads_n)

    def run(slot):
        start.wait(timeout=10)
        results[slot] = work()

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_eight_thread_builds_share_one_instance_per_key(monkeypatch):
    # More threads than cores, switching every microsecond.  Racing
    # misses on one key must still leave one instance per key: builds
    # that yield inside the race window make the misses overlap, and
    # the constructions race on real derivations.  A small table must
    # stay within its cap while threads evict from it.
    keys = [("__perm__", (f"race{k}", (1, 0)), (2,)) for k in range(64)]

    def slow_build(k):
        def build():
            time.sleep(0)
            return PermutationGate([1, 0], (2,), f"race{k}")
        return build

    builds = [(name, n, tuple(kwargs.items()))
              for name, n, kwargs in BUILDS if n < 5]
    expected = {
        build: build_toffoli(build[0], build[1], **dict(build[2]))
        .circuit.build_digest()
        for build in builds
    }

    def build_all():
        gates, errors = [], []
        for build in builds:
            name, n, kwargs = build
            circuit = build_toffoli(name, n, **dict(kwargs)).circuit
            if circuit.build_digest() != expected[build]:
                errors.append(build)
            if interned_gate_count() > intern.INTERN_TABLE_ENTRIES:
                errors.append("over cap")
            gates.extend(op.gate for op in circuit.all_operations())
        return gates, errors

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clear_kernel_caches()
        results = _race(lambda: [
            intern.intern_gate(key, slow_build(k))
            for k, key in enumerate(keys)
        ])
        assert all(
            all(a is b for a, b in zip(result, results[0]))
            for result in results
        )

        clear_kernel_caches()
        results = _race(build_all)
        assert all(errors == [] for _, errors in results)
        by_key: dict = {}
        for gates, _ in results:
            for gate in gates:
                by_key.setdefault(gate._key, set()).add(id(gate))
        assert all(len(ids) == 1 for ids in by_key.values())

        clear_kernel_caches()
        monkeypatch.setattr(intern, "INTERN_TABLE_ENTRIES", 16)
        results = _race(build_all)
        assert all(errors == [] for _, errors in results)
        assert interned_gate_count() <= 16
    finally:
        sys.setswitchinterval(previous)
        clear_kernel_caches()


class TestIdsStayInTheirProcess:
    def test_pickle_drops_the_id(self):
        gate = controlled(root_power_gate(X01, 1, 3, "X01^(1/3)"), (1,), (3,))
        spec_id(gate)
        assert gate._gate_id is not None
        loaded = pickle.loads(pickle.dumps(gate))
        assert "_gate_id" not in loaded.__dict__
        assert "_gate_id" not in loaded.sub_gate.__dict__
        assert loaded.spec() == gate.spec()
        assert spec_id(loaded) == spec_id(gate)

    def test_loading_process_assigns_its_own_id(self):
        gate = root_power_gate(X01, 1, 3, "X01^(1/3)")
        spec_id(gate)
        payload = pickle.dumps(gate)
        script = (
            "import pickle, sys\n"
            "from repro.gates import level_swap, root_power_gate, X01\n"
            "from repro.gates.intern import spec_id\n"
            "for k in range(5):\n"
            "    spec_id(level_swap(9, 0, k + 1))\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "assert '_gate_id' not in loaded.__dict__\n"
            "fresh = root_power_gate(X01, 1, 3, 'X01^(1/3)')\n"
            "print(spec_id(loaded), spec_id(fresh))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], input=payload,
            capture_output=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        loaded_id, fresh_id = map(int, result.stdout.split())
        assert loaded_id == fresh_id
