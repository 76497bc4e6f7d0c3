"""``circuit_fingerprint`` digests are byte-identical to the serializing form.

Fingerprints key the result caches, the ``ResultStore`` on disk and the
golden compile records, so the cached per-operation cells must hash to
exactly the digest that serializing every gate spec on each call gave.
:func:`reference_fingerprint` is that serializing form, kept as the
oracle.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.circuits import Circuit, Moment
from repro.execution.cache import circuit_fingerprint
from repro.execution.pipeline_spec import PIPELINE_SPECS
from repro.gates import (
    CNOT,
    GATE_REGISTRY,
    RX,
    ControlledGate,
    GateSpec,
    H,
    MatrixGate,
    PhasedGate,
    X,
    controlled_power_of_x,
)
from repro.gates.embedded import EmbeddedGate
from repro.gates.qutrit import X_PLUS_1
from repro.qudits import Qudit, qubits, qutrits
from tests.arch.test_compile_golden import workloads
from tests.gates.test_spec import GATE_CATALOG


def reference_fingerprint(moments) -> str:
    """SHA-256 over each moment's sorted, freshly serialized cells."""
    digest = hashlib.sha256()
    for moment in moments:
        cells = sorted(
            json.dumps(
                {
                    "gate": op.gate.canonical_spec().to_dict(),
                    "wires": [[w.index, w.dimension] for w in op.qudits],
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            for op in moment
        )
        digest.update(b"|")
        for cell in cells:
            digest.update(cell.encode())
            digest.update(b";")
    return digest.hexdigest()


def assert_parity(circuit: Circuit) -> None:
    expected = reference_fingerprint(circuit)
    assert circuit_fingerprint(circuit) == expected
    # A second call hashes the cached cells: still the same digest.
    assert circuit_fingerprint(circuit) == expected


#: Gates whose specs the catalog below adds to the spec-test catalog:
#: ``__embedded__`` with complex params and controlled/phased shapes on
#: mixed dimensions.
EXTRA_GATES = {
    "embedded_rx": EmbeddedGate(RX(0.77), (3,)),
    "embedded_cx_pow": EmbeddedGate(controlled_power_of_x(0.25), (3, 3)),
    "controlled_mixed": ControlledGate(X_PLUS_1, (2,), (1,)),
    "phased_complex": PhasedGate([1, np.exp(0.3j), -1j], (3,), "ph3"),
    "matrix_complex": MatrixGate(
        np.array([[0, 1j], [1j, 0]]), (2,), name="iX"
    ),
}
CATALOG = {**GATE_CATALOG, **EXTRA_GATES}


def _spec_names(spec: GateSpec, names: set[str]) -> None:
    names.add(spec.name)
    for param in spec.params:
        for item in param if isinstance(param, tuple) else (param,):
            if isinstance(item, GateSpec):
                _spec_names(item, names)


def _wires_for(gate) -> list[Qudit]:
    return [Qudit(10 + i, d) for i, d in enumerate(gate.dims)]


def test_catalog_covers_every_registry_name():
    names: set[str] = set()
    for gate in CATALOG.values():
        _spec_names(gate.spec(), names)
        _spec_names(gate.canonical_spec(), names)
    assert set(GATE_REGISTRY.names()) <= names


@pytest.mark.parametrize("gate", CATALOG.values(), ids=CATALOG)
def test_every_registry_gate(gate):
    assert_parity(Circuit([gate.on(*_wires_for(gate))]))


def test_mixed_qubit_and_qutrit_wires():
    a, b = qubits(2)
    t, u = qutrits(2, start=2)
    circuit = Circuit([
        H.on(a),
        CNOT.on(a, b),
        X_PLUS_1.on(t),
        ControlledGate(X_PLUS_1, (2,), (1,)).on(b, t),
        ControlledGate(X, (3,), (2,)).on(u, a),
        EmbeddedGate(H, (3,)).on(u),
    ])
    assert_parity(circuit)


def test_moment_insertion_order_does_not_matter():
    a, b = qubits(2)
    t = Qudit(2, 3)
    ops = [H.on(a), X.on(b), X_PLUS_1.on(t)]
    forward = Circuit(ops)
    backward = Circuit(list(reversed(ops)))
    assert [m.operations for m in forward] != [m.operations for m in backward]
    assert forward.depth == backward.depth == 1
    assert_parity(forward)
    assert_parity(backward)
    assert circuit_fingerprint(forward) == circuit_fingerprint(backward)
    assert circuit_fingerprint(forward) == reference_fingerprint(
        [Moment(reversed(ops))]
    )


@pytest.mark.parametrize("key", sorted(workloads()))
def test_golden_workloads_and_compiled_outputs(key):
    _, build = workloads()[key]
    circuit = build()
    assert_parity(circuit)
    for pipeline in ("hardware-line-opt", "hardware-grid-opt"):
        compiled = PIPELINE_SPECS[pipeline].build().compile(build())
        assert_parity(compiled.circuit)
