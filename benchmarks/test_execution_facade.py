"""Execution facade: sweep sharding and result caching.

The ROADMAP's scaling direction (batching, caching, multi-backend) lands
in ``repro.execute``; these benchmarks pin down that (a) parallel
trajectory sweeps match serial ones in distribution, (b) the result
cache turns repeat sweeps into O(lookup) work, and (c) the compile
pipeline reproduces the constructions' inline lowering.
"""

from __future__ import annotations

import pytest

from repro.execution import (
    PipelineSpec,
    ResultCache,
    circuit_fingerprint,
    execute,
)
from repro.noise.presets import SC
from repro.toffoli.registry import build_toffoli

SWEEP = {"num_controls": range(3, 8)}


@pytest.fixture(scope="module")
def serial_sweep():
    return execute(
        "qutrit_tree", backend="trajectory", noise_model=SC,
        sweep=SWEEP, trials=20, seed=2019,
    )


def test_parallel_sweep_matches_serial_distribution(serial_sweep):
    parallel = execute(
        "qutrit_tree", backend="trajectory", noise_model=SC,
        sweep=SWEEP, trials=20, seed=2019, parallel=True, workers=4,
    )
    assert len(parallel) == len(serial_sweep)
    for serial_point, parallel_point in zip(serial_sweep, parallel):
        assert parallel_point.params == serial_point.params
        assert parallel_point.trials == serial_point.trials
        # Same estimator, different shard seeds: agreement within the
        # combined statistical uncertainty (5 sigma head room).
        tolerance = 5 * max(
            serial_point.std_error + parallel_point.std_error, 0.02
        )
        assert (
            abs(parallel_point.mean_fidelity - serial_point.mean_fidelity)
            <= tolerance
        )


def test_cached_sweep_is_fast(benchmark, serial_sweep):
    cache = ResultCache()
    execute(
        "qutrit_tree", backend="trajectory", noise_model=SC,
        sweep=SWEEP, trials=20, seed=2019, cache=cache,
    )

    def rerun():
        return execute(
            "qutrit_tree", backend="trajectory", noise_model=SC,
            sweep=SWEEP, trials=20, seed=2019, cache=cache,
        )

    results = benchmark(rerun)
    assert cache.stats.hits >= len(results)
    for cached, fresh in zip(results, serial_sweep):
        assert cached.mean_fidelity == fresh.mean_fidelity


def test_pipeline_matches_inline_decomposition():
    plain = build_toffoli("qutrit_tree", 6, decompose=False).circuit
    compiled = PipelineSpec.from_name("lowering").build().compile(plain)
    inline = build_toffoli("qutrit_tree", 6).circuit
    assert circuit_fingerprint(compiled.circuit) == circuit_fingerprint(
        inline
    )
