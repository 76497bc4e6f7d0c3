"""Tests for execute(): targets, sweeps, parallel sharding, caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.execution import (
    FidelityResult,
    PipelineSpec,
    ResultCache,
    execute,
)
from repro.gates.qubit import CNOT, H, X
from repro.noise.model import NoiseModel
from repro.qudits import qubits
from repro.toffoli.registry import build_toffoli

DEPOL = NoiseModel("depol", 2e-3, 1e-3, 1e-7, 3e-7, t1=None)


class TestTargets:
    def test_accepts_circuit(self):
        a, b = qubits(2)
        result = execute(Circuit([H.on(a), CNOT.on(a, b)]))
        assert result.backend == "statevector"
        assert np.isclose(
            result.probability_of((0, 0))
            + result.probability_of((1, 1)),
            1.0,
        )

    def test_accepts_construction_result(self):
        built = build_toffoli("qutrit_tree", 3)
        result = execute(built, initial=(1, 1, 1, 0))
        assert np.isclose(
            result.probability_of((1, 1, 1, 1)), 1.0, atol=1e-7
        )

    def test_accepts_registry_name_with_builder_kwargs(self):
        result = execute(
            "qutrit_tree",
            num_controls=4,
            backend="classical",
            initial=(1, 1, 1, 1, 0),
        )
        assert result.values == (1, 1, 1, 1, 1)

    def test_accepts_callable(self):
        def make(width: int) -> Circuit:
            wires = qubits(width)
            return Circuit([X.on(w) for w in wires])

        result = execute(
            make, width=3, backend="classical"
        )
        assert result.values == (1, 1, 1)

    def test_builder_kwargs_on_circuit_rejected(self):
        a = qubits(1)[0]
        with pytest.raises(TypeError, match="already a concrete circuit"):
            execute(Circuit([X.on(a)]), num_controls=3)

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(KeyError, match="unknown pipeline"):
            PipelineSpec.from_name("optimize-harder")


class TestPipelineIntegration:
    def test_pipeline_metadata_attached(self):
        result = execute(
            "qutrit_tree",
            num_controls=4,
            pipeline=PipelineSpec.from_name("lowering").build(),
            initial=(1, 1, 1, 1, 0),
            decompose=False,
        )
        assert result.metadata["pipeline"] == "lowering"
        assert result.metadata["compiled_depth"] > 0
        assert np.isclose(
            result.probability_of((1, 1, 1, 1, 1)), 1.0, atol=1e-7
        )

    def test_named_pipeline(self):
        result = execute(
            "qutrit_tree",
            num_controls=3,
            pipeline=PipelineSpec.from_name("lowering"),
            decompose=False,
        )
        assert result.metadata["pipeline"] == "lowering"

    def test_named_hardware_pipelines_route_and_run(self):
        for name in ("hardware-line", "hardware-grid", "hardware-heavy-hex"):
            result = execute(
                "qutrit_tree",
                num_controls=3,
                pipeline=PipelineSpec.from_name(name),
            )
            assert result.metadata["pipeline"] == name
            assert any(
                pass_name.startswith("RouteToTopology")
                for pass_name in result.metadata["passes"]
            )


class TestSweeps:
    """The acceptance sweep: num_controls 3..7, parallel == serial."""

    @pytest.mark.slow
    def test_parallel_sweep_matches_serial_seeded(self):
        config = dict(
            backend="trajectory",
            noise_model=DEPOL,
            sweep={"num_controls": range(3, 8)},
            trials=8,
            seed=2019,
        )
        serial = execute("qutrit_tree", **config)
        parallel = execute(
            "qutrit_tree", parallel=True, workers=2, **config
        )
        repeat = execute(
            "qutrit_tree", parallel=True, workers=2, **config
        )
        assert len(serial) == len(parallel) == 5
        for serial_pt, parallel_pt, repeat_pt in zip(
            serial, parallel, repeat
        ):
            assert parallel_pt.params == serial_pt.params
            assert parallel_pt.trials == serial_pt.trials == 8
            assert isinstance(parallel_pt, FidelityResult)
            # Merged shards are deterministic given the seed...
            assert (
                parallel_pt.mean_fidelity == repeat_pt.mean_fidelity
            )
            # ...and agree with the serial estimator in distribution.
            spread = max(
                5 * (serial_pt.std_error + parallel_pt.std_error), 0.05
            )
            assert (
                abs(parallel_pt.mean_fidelity - serial_pt.mean_fidelity)
                <= spread
            )

    def test_statevector_sweep_parallel_identical(self):
        sweep = {"num_controls": [3, 4]}
        serial = execute("qutrit_tree", sweep=sweep, seed=2)
        parallel = execute(
            "qutrit_tree", sweep=sweep, seed=2, parallel=True, workers=2
        )
        for serial_pt, parallel_pt in zip(serial, parallel):
            assert np.allclose(
                serial_pt.state.vector, parallel_pt.state.vector
            )

    def test_sweep_points_tagged_and_ordered(self):
        results = execute(
            "qutrit_tree",
            backend="classical",
            sweep={"num_controls": [3, 4, 5]},
            initial=None,
        )
        assert [dict(r.params) for r in results] == [
            {"num_controls": 3},
            {"num_controls": 4},
            {"num_controls": 5},
        ]

    def test_sweep_run_params_override(self):
        results = execute(
            "qutrit_tree",
            num_controls=3,
            backend="trajectory",
            noise_model=DEPOL,
            sweep={"trials": [2, 4]},
            seed=3,
        )
        assert [r.trials for r in results] == [2, 4]


class TestCache:
    def test_cache_hit_returns_equal_result(self):
        cache = ResultCache()
        config = dict(
            num_controls=3,
            backend="trajectory",
            noise_model=DEPOL,
            trials=4,
            seed=9,
            cache=cache,
        )
        first = execute("qutrit_tree", **config)
        second = execute("qutrit_tree", **config)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert second.mean_fidelity == first.mean_fidelity

    def test_unseeded_stochastic_runs_not_cached(self):
        cache = ResultCache()
        for _ in range(2):
            execute(
                "qutrit_tree",
                num_controls=3,
                backend="trajectory",
                noise_model=DEPOL,
                trials=2,
                cache=cache,
            )
        assert len(cache) == 0

    def test_deterministic_runs_cached_without_seed(self):
        cache = ResultCache()
        for _ in range(2):
            execute(
                "qutrit_tree",
                num_controls=3,
                backend="classical",
                initial=(1, 1, 1, 0),
                cache=cache,
            )
        assert cache.stats.hits == 1

    def test_backend_instances_with_different_models_do_not_collide(self):
        from repro.execution import TrajectoryBackend

        heavy = NoiseModel("heavy", 5e-3, 5e-3, 1e-7, 3e-7, t1=None)
        cache = ResultCache()
        built = build_toffoli("qutrit_tree", 3)
        clean = execute(
            built, backend=TrajectoryBackend(DEPOL),
            trials=6, seed=4, cache=cache,
        )
        noisy = execute(
            built, backend=TrajectoryBackend(heavy),
            trials=6, seed=4, cache=cache,
        )
        assert cache.stats.hits == 0
        assert noisy.metadata["noise_model"] == "heavy"
        assert noisy.mean_fidelity < clean.mean_fidelity

    def test_sweep_initial_lists_cacheable(self):
        cache = ResultCache()
        for _ in range(2):
            results = execute(
                "qutrit_tree",
                num_controls=3,
                backend="classical",
                sweep={"initial": [[1, 1, 1, 0], [0, 1, 1, 0]]},
                cache=cache,
            )
        assert [r.values for r in results] == [
            (1, 1, 1, 1),
            (0, 1, 1, 0),
        ]
        assert cache.stats.hits == 2

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=1)
        for controls in (3, 4):
            execute(
                "qutrit_tree",
                num_controls=controls,
                backend="classical",
                initial=(1,) * controls + (0,),
                cache=cache,
            )
        assert len(cache) == 1
        assert cache.stats.evictions == 1


class TestTimeouts:
    """execute(timeout=...): the cooperative deadline (RESILIENCE.md)."""

    def test_generous_timeout_completes(self):
        result = execute(
            "qutrit_tree", num_controls=3, backend="classical",
            initial=(1, 1, 1, 0), timeout=300,
        )
        assert result.values == (1, 1, 1, 1)

    def test_expired_deadline_raises_typed_error(self):
        from repro.resilience import Deadline, JobTimeoutError

        with pytest.raises(JobTimeoutError):
            execute(
                "qutrit_tree", num_controls=3, backend="classical",
                initial=(1, 1, 1, 0),
                timeout=Deadline(0.0),  # already expired
            )

    def test_expired_deadline_checked_between_sweep_tasks(self):
        from repro.resilience import Deadline, JobTimeoutError

        clock = {"now": 0.0}

        # Each clock read advances time: the first sweep point fits
        # the budget, the next between-task checkpoint does not.
        def advancing_clock():
            clock["now"] += 0.6
            return clock["now"]

        deadline = Deadline(1.0, clock=advancing_clock)
        with pytest.raises(JobTimeoutError, match="execute"):
            execute(
                "qutrit_tree", backend="classical", initial=None,
                sweep={"num_controls": [3, 4, 5]}, timeout=deadline,
            )

    def test_parallel_pool_honours_deadline(self):
        from repro.resilience import Deadline, JobTimeoutError

        with pytest.raises(JobTimeoutError, match="shards"):
            execute(
                "qutrit_tree", sweep={"num_controls": [3, 4]}, seed=2,
                parallel=True, workers=2, timeout=Deadline(0.0),
            )

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            execute(
                "qutrit_tree", num_controls=3, backend="classical",
                initial=(1, 1, 1, 0), timeout=-1,
            )
