"""Golden compile outputs of the hardware pipelines.

``compile_golden.json`` holds, for each workload below compiled through
``hardware-line-opt``, ``hardware-grid-opt`` and (at width <= 4)
``hardware-heavy-hex-opt``, the compiled circuit's fingerprint, the
router's initial and final placements and its SWAP count.  Every
rewrite of the router's scoring or the optimizer's commutation
bookkeeping must reproduce these values exactly: a speed-up that
changes one tie-break shows up here as a different fingerprint.

Print the records of the current tree with
``PYTHONPATH=src python tests/arch/test_compile_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.execution.cache import circuit_fingerprint
from repro.execution.pipeline_spec import PIPELINE_SPECS
from repro.interop.workloads import (
    qft_circuit,
    random_clifford_t,
    ripple_carry_adder,
)
from repro.toffoli.registry import build_toffoli

GOLDEN = Path(__file__).with_name("compile_golden.json")

#: The Fig. 9/10 constructions.
CONSTRUCTIONS = ("qubit_ancilla_free", "qubit_one_dirty", "qutrit_tree")
PIPELINES = ("hardware-line-opt", "hardware-grid-opt")
#: Heavy-hex spreads circuits over many sites; only narrow ones here.
HEAVY_HEX = "hardware-heavy-hex-opt"
HEAVY_HEX_MAX_WIDTH = 4


def workloads() -> dict[str, tuple[int, object]]:
    """name -> (width parameter N, zero-argument circuit builder)."""
    cases: dict[str, tuple[int, object]] = {}
    for name in CONSTRUCTIONS:
        for n in range(3, 7):
            cases[f"{name}-{n}"] = (
                n, lambda name=name, n=n: build_toffoli(name, n).circuit
            )
    for n in range(4, 7):
        cases[f"qft-{n}"] = (n, lambda n=n: qft_circuit(n))
    for n in (2, 3):
        cases[f"adder-{n}"] = (n, lambda n=n: ripple_carry_adder(n))
    for n, depth, seed in ((4, 60, 7), (6, 80, 8)):
        cases[f"clifford_t-{n}-{seed}"] = (
            n, lambda n=n, depth=depth, seed=seed:
            random_clifford_t(n, depth, seed=seed),
        )
    return cases


def cases() -> list[tuple[str, str]]:
    """(workload, pipeline) pairs covered by the golden file."""
    out = []
    for key, (width, _) in workloads().items():
        pipelines = PIPELINES + (
            (HEAVY_HEX,) if width <= HEAVY_HEX_MAX_WIDTH else ()
        )
        out.extend((key, pipeline) for pipeline in pipelines)
    return out


def _placement(placement: dict) -> list[list[int]]:
    return sorted(
        [wire.index, wire.dimension, site]
        for wire, site in placement.items()
    )


def compile_record(key: str, pipeline: str) -> dict:
    """The compiled fingerprint, placements and SWAP count of one case."""
    _, build = workloads()[key]
    compiled = PIPELINE_SPECS[pipeline].build().compile(build())
    route = next(
        meta for meta in compiled.pass_metadata if "swap_count" in meta
    )
    return {
        "fingerprint": circuit_fingerprint(compiled.circuit),
        "initial_placement": _placement(route["initial_placement"]),
        "final_placement": _placement(route["final_placement"]),
        "swap_count": route["swap_count"],
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(f"{k}|{p}" for k, p in cases())


@pytest.mark.parametrize(
    "key,pipeline", cases(), ids=[f"{k}|{p}" for k, p in cases()]
)
def test_compile_matches_golden(key, pipeline):
    assert compile_record(key, pipeline) == _golden()[f"{key}|{pipeline}"]


if __name__ == "__main__":
    records = {f"{k}|{p}": compile_record(k, p) for k, p in cases()}
    print("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}"
        for key in sorted(records)
    ) + "\n}")
