"""Byte-identity golden of built and compiled request circuits.

``build_golden.json`` holds, for every circuit the request benchmark's
``serve-hot`` catalog and ``compile-cold``'s first block build, the
circuit's ``build_digest()``, its ``circuit_fingerprint()`` and the
SHA-256 of its ``to_json()`` text, before and after its hardware
pipeline.  Constructions are built as the benchmark builds them: a
level-swap layer prepares every control in its active value in front of
the construction.

Gates are shared, interned values, so a second build in one process
reads every gate from the intern table, and a build after
``clear_kernel_caches()`` (which empties the table) derives them again.
Each case is built three ways and all three must match the file: a
change to what a gate serializes as, how it fingerprints or which
instance a builder reuses shows up here as a different digest.

Print the records of the current tree with
``PYTHONPATH=src python tests/gates/test_build_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.circuits.circuit import Circuit
from repro.execution.cache import circuit_fingerprint
from repro.execution.pipeline_spec import PIPELINE_SPECS
from repro.gates.qutrit import level_swap
from repro.interop.workloads import (
    qft_circuit,
    random_clifford_t,
    ripple_carry_adder,
)
from repro.sim.kernels import clear_kernel_caches
from repro.toffoli.registry import build_toffoli

GOLDEN = Path(__file__).with_name("build_golden.json")

LINE, GRID = "hardware-line-opt", "hardware-grid-opt"

#: serve-hot's statevector constructions (every control active): the
#: qubit and qutrit constructions through both hardware pipelines, and
#: every construction uncompiled.
SERVE_COMPILED = ("qutrit_tree", "qubit_one_dirty", "qubit_ancilla_free")
SERVE_BUILT = SERVE_COMPILED + ("he_tree",)
#: serve-hot's classical truth-table targets (built undecomposed).
SERVE_TRUTH = ("qutrit_tree", "qubit_one_dirty", "he_tree")
#: compile-cold's constructions and its first block's fixed Clifford+T
#: circuits: (qubits, pipeline, depth), circuit seed ``2**61 + k``.
COLD_CONSTRUCTIONS = (
    "qubit_ancilla_free", "qubit_one_dirty", "he_tree", "qutrit_tree",
)
COLD_CLIFFORD_T = (
    (6, GRID, 150), (6, LINE, 200), (7, GRID, 250),
    (7, LINE, 300), (8, GRID, 350), (8, LINE, 400),
)


def prepared(name: str, num_controls: int) -> Circuit:
    """``name`` with a level-swap layer preparing every control active."""
    built = build_toffoli(name, num_controls)
    prep = Circuit([
        level_swap(wire.dimension, 0, 1).on(wire) for wire in built.controls
    ])
    return prep + built.circuit


def cases() -> dict[str, tuple]:
    """case key -> (zero-argument builder, pipeline name or None)."""
    out: dict[str, tuple] = {}

    def add(key, build, pipelines):
        for pipeline in pipelines:
            out[f"{key}|{pipeline or 'built'}"] = (build, pipeline)

    for name in SERVE_BUILT:
        for n in (3, 4, 5):
            add(f"serve-hot|{name}-{n}",
                lambda name=name, n=n: prepared(name, n),
                (None, LINE, GRID) if name in SERVE_COMPILED else (None,))
    for name in SERVE_TRUTH:
        for n in (4, 5):
            add(f"serve-hot|truth-{name}-{n}",
                lambda name=name, n=n: build_toffoli(
                    name, n, decompose=False).circuit,
                (None,))
    for name in COLD_CONSTRUCTIONS:
        for n in (4, 5, 6):
            add(f"compile-cold|{name}-{n}",
                lambda name=name, n=n: prepared(name, n),
                (None, LINE, GRID))
    for n in (4, 5, 6):
        add(f"compile-cold|qft-{n}", lambda n=n: qft_circuit(n),
            (None, LINE, GRID))
    for n in (2, 3):
        add(f"compile-cold|adder-{n}", lambda n=n: ripple_carry_adder(n),
            (None, LINE, GRID))
    for k, (qubits, pipeline, depth) in enumerate(COLD_CLIFFORD_T):
        add(f"compile-cold|clifford_t-{qubits}-{depth}",
            lambda qubits=qubits, depth=depth, k=k: random_clifford_t(
                qubits, depth, seed=(1 << 61) + k),
            (None, pipeline))
    return out


def record(key: str) -> dict:
    """The digests of one case, built (and compiled) from scratch."""
    build, pipeline = cases()[key]
    circuit = build()
    if pipeline is not None:
        circuit = PIPELINE_SPECS[pipeline].build().compile(circuit).circuit
    return {
        "build_digest": circuit.build_digest(),
        "fingerprint": circuit_fingerprint(circuit),
        "json_sha256": hashlib.sha256(
            circuit.to_json().encode()).hexdigest(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(cases())


@pytest.mark.parametrize("key", sorted(cases()))
def test_three_builds_match_golden(key):
    expected = _golden()[key]
    assert record(key) == expected
    assert record(key) == expected
    clear_kernel_caches()
    assert record(key) == expected


if __name__ == "__main__":
    records = {key: record(key) for key in sorted(cases())}
    print("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}"
        for key in sorted(records)
    ) + "\n}")
