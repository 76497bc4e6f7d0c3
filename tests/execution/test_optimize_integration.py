"""Optimizer integration with the execution layer.

Covers the OptimizePass compile stage, the ``*-opt`` named pipelines,
the ``execute(optimize=...)`` knob, and the cache-identity contract:
an optimized run is keyed on the *optimized* circuit's fingerprint.
"""

import numpy as np

from repro.execution import PIPELINE_SPECS, PipelineSpec, execute
from repro.execution.cache import ResultCache, circuit_fingerprint
from repro.execution.facade import resolve_pipeline
from repro.execution.passes import OptimizePass
from repro.optimize import RewriteEngine
from repro.toffoli.registry import construction_circuit


class TestOptimizePass:
    def test_transform_reduces_and_records_metadata(self):
        circuit = construction_circuit("he_tree", 3)
        stage = OptimizePass()
        optimized = stage.transform(circuit)
        assert optimized.num_operations < circuit.num_operations
        meta = stage.last_metadata
        assert meta["gates_before"] == circuit.num_operations
        assert meta["gates_after"] == optimized.num_operations
        assert meta["passes"] == [
            "cancel-inverses", "fuse-phases", "pack-commuting",
        ]
        assert stage.name == "Optimize[optimize]"

    def test_custom_engine_and_label(self):
        engine = RewriteEngine(passes=["fuse-phases"])
        stage = OptimizePass(engine=engine, label="pre-route")
        assert stage.engine is engine
        assert stage.name == "Optimize[pre-route]"


class TestPipelines:
    def test_optimize_pipeline_is_a_single_stage(self):
        pipeline = PipelineSpec.from_name("optimize").build()
        assert pipeline.name == "optimize"
        assert pipeline.pass_names == ("Optimize[optimize]",)

    def test_hardware_opt_brackets_the_router(self):
        pipeline = PipelineSpec.from_name("hardware-line-opt").build()
        assert pipeline.name == "hardware-line-opt"
        names = pipeline.pass_names
        assert names[1] == "Optimize[pre-route]"
        assert names[3] == "Optimize[post-route]"

    def test_named_opt_pipelines_resolve(self):
        for name in (
            "optimize",
            "hardware-line-opt",
            "hardware-grid-opt",
            "hardware-heavy-hex-opt",
        ):
            assert name in PIPELINE_SPECS
            pipeline = resolve_pipeline(PipelineSpec.from_name(name))
            assert pipeline.name == name

    def test_hardware_opt_compiles_equivalently(self):
        circuit = construction_circuit("he_tree", 3)
        plain = PipelineSpec.from_name("hardware-line").build().compile(circuit)
        opt = PipelineSpec.from_name("hardware-line-opt").build().compile(circuit)
        assert opt.num_operations <= plain.num_operations


class TestExecuteOptimizeKnob:
    def test_optimized_run_matches_plain_run(self):
        plain = execute("he_tree", num_controls=3)
        optimized = execute("he_tree", num_controls=3, optimize=True)
        assert np.allclose(
            plain.state.tensor, optimized.state.tensor, atol=1e-8
        )

    def test_metadata_records_the_reduction(self):
        result = execute("he_tree", num_controls=3, optimize=True)
        assert result.metadata["optimize_gates_removed"] > 0
        assert result.metadata["optimize_passes"] == (
            "cancel-inverses", "fuse-phases", "pack-commuting",
        )

    def test_pass_list_string_accepted(self):
        result = execute(
            "he_tree", num_controls=3, optimize="cancel-inverses"
        )
        assert result.metadata["optimize_passes"] == ("cancel-inverses",)

    def test_cache_keys_on_the_optimized_form(self):
        # Two ways to arrive at the same optimized circuit must share a
        # cache line; the unoptimized run must not.
        cache = ResultCache()
        circuit = construction_circuit("he_tree", 3)
        optimized_circuit, _ = RewriteEngine().run(circuit)
        execute(circuit, optimize=True, cache=cache)
        assert len(cache) == 1
        key = next(iter(cache._entries))
        assert key[0] == circuit_fingerprint(optimized_circuit)
        assert key[0] != circuit_fingerprint(circuit)
        # Re-running hits the same line (no new entries).
        execute(circuit, optimize=True, cache=cache)
        assert len(cache) == 1
        # The unoptimized run gets its own line.
        execute(circuit, cache=cache)
        assert len(cache) == 2
