"""Seeded trajectory estimates, pinned to recorded values.

``trajectory_golden.json`` holds :func:`estimate_circuit_fidelity`'s
mean fidelity, standard error, mean gate errors and mean idle jumps for
the request benchmark's four ``sim-heavy`` trajectory configurations
(N=5, three seeds each) and for ``qubit_ancilla_free`` N=4 under
``TI_QUBIT`` (no damping).  Every run is recorded twice: once as it
runs, and once with ``kernels._GATHER_MAX_ENTRIES`` patched below the
register size, which sends every gate through the path that caches no
gathers (the one registers above 2^18 amplitudes take).

The engine may change how it applies a gate or a damping branch, but
not which draws it makes or what they decide, so every seeded estimate
must match its record to rounding (1e-12).

Print the records of the current tree with
``PYTHONPATH=src python tests/sim/test_trajectory_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.noise.presets import ALL_MODELS
from repro.sim import kernels
from repro.sim.fidelity import estimate_circuit_fidelity
from repro.toffoli.registry import build_toffoli

GOLDEN = Path(__file__).with_name("trajectory_golden.json")

#: (construction, controls, noise model, trials, seeds).
RUNS = (
    ("qutrit_tree", 5, "SC", 40, (1, 2, 3)),
    ("qubit_ancilla_free", 5, "SC", 20, (1, 2, 3)),
    ("qutrit_tree", 5, "SC+T1+GATES", 40, (1, 2, 3)),
    ("qubit_ancilla_free", 5, "SC+T1+GATES", 20, (1, 2, 3)),
    ("qubit_ancilla_free", 4, "TI_QUBIT", 20, (1,)),
)
#: Gather paths: as the register's size decides, and forced off.
PATHS = ("gathers", "no-gathers")

FIELDS = ("mean_fidelity", "std_error", "mean_gate_errors",
          "mean_idle_jumps")


def cases() -> dict[str, tuple]:
    """case key -> (construction, controls, model, trials, seed, path)."""
    return {
        f"{name}-{n}|{model}|{trials}|seed={seed}|{path}":
            (name, n, model, trials, seed, path)
        for name, n, model, trials, seeds in RUNS
        for seed in seeds
        for path in PATHS
    }


def record(key: str) -> dict:
    """One case's estimate, as recorded in the golden file."""
    name, n, model, trials, seed, path = cases()[key]
    built = build_toffoli(name, n)
    with pytest.MonkeyPatch.context() as patch:
        if path == "no-gathers":
            patch.setattr(kernels, "_GATHER_MAX_ENTRIES", 1)
        estimate = estimate_circuit_fidelity(
            built.circuit, ALL_MODELS[model], trials=trials, seed=seed,
            wires=built.all_wires,
        )
    return {field: getattr(estimate, field) for field in FIELDS}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(cases())


@pytest.mark.parametrize("key", sorted(cases()))
def test_seeded_estimate_matches_golden(key):
    expected = _golden()[key]
    got = record(key)
    for field in FIELDS:
        assert got[field] == pytest.approx(expected[field], rel=0,
                                           abs=1e-12), field


def test_forced_path_caches_no_gathers():
    """The patched runs really take the no-gather path."""
    kernels.clear_kernel_caches()
    record("qubit_ancilla_free-5|SC|20|seed=1|no-gathers")
    stats = kernels.kernel_cache_stats()
    assert stats["permutation_gathers"] == 0
    assert stats["segment_gathers"] == 0


if __name__ == "__main__":
    records = {key: record(key) for key in sorted(cases())}
    print("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}"
        for key in sorted(records)
    ) + "\n}")
