"""Declarative PipelineSpec: the registry, serialization, resolution."""

import json

import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import SerializationError
from repro.execution import PipelineSpec, PipelineStage, execute
from repro.execution.facade import resolve_pipeline
from repro.execution.pipeline import CompilePipeline
from repro.execution.pipeline_spec import PIPELINE_SPECS, STAGE_KINDS
from repro.gates.qubit import CNOT, H
from repro.qudits import qubits


def _bell_pair():
    a, b = qubits(2)
    return Circuit([H.on(a), CNOT.on(a, b)])


class TestStage:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown stage kind"):
            PipelineStage("transpile")

    def test_bad_params_rejected_at_build(self):
        stage = PipelineStage("lift", {"levels": 3})
        with pytest.raises(ValueError, match="bad parameters"):
            stage.build()

    def test_params_are_canonically_ordered(self):
        left = PipelineStage("route", {"topology": "line", "router": "greedy"})
        right = PipelineStage("route", {"router": "greedy", "topology": "line"})
        assert left == right
        assert hash(left) == hash(right)

    def test_bad_enum_params_rejected(self):
        with pytest.raises(ValueError, match="width2"):
            PipelineStage("decompose", {"basis": "clifford"}).build()
        with pytest.raises(ValueError, match="merge"):
            PipelineStage("schedule", {"mode": "alap"}).build()


_ROUTE = "RouteToTopology[lookahead]"
_HARDWARE = ("DecomposeToWidth2", _ROUTE, "ASAPReschedule")
_HARDWARE_OPT = (
    "DecomposeToWidth2", "Optimize[pre-route]", _ROUTE,
    "Optimize[post-route]", "ASAPReschedule",
)

#: The pass chain each registered name builds.
REGISTERED_PASS_NAMES = {
    "lowering": ("DecomposeToWidth2", "MergeMoments"),
    "qutrit-promotion": ("LiftToQutrits", "MergeMoments"),
    "optimize": ("Optimize[optimize]",),
    "naive-lift": ("DecomposeToQubitBasis", "LiftToQutrits"),
    "temporary-ternary": ("LiftToQutrits", "DecomposeToWidth2"),
    "hardware-line": _HARDWARE,
    "hardware-grid": _HARDWARE,
    "hardware-heavy-hex": _HARDWARE,
    "hardware-line-opt": _HARDWARE_OPT,
    "hardware-grid-opt": _HARDWARE_OPT,
    "hardware-heavy-hex-opt": _HARDWARE_OPT,
}


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(REGISTERED_PASS_NAMES))
    def test_registered_pass_chain(self, name):
        pipeline = PipelineSpec.from_name(name).build()
        assert pipeline.pass_names == REGISTERED_PASS_NAMES[name]

    def test_registry_is_pinned(self):
        assert set(PIPELINE_SPECS) == set(REGISTERED_PASS_NAMES)

    def test_interop_strategies_registered(self):
        naive = PipelineSpec.from_name("naive-lift")
        ternary = PipelineSpec.from_name("temporary-ternary")
        assert [s.kind for s in naive.stages] == ["decompose", "lift"]
        assert [s.kind for s in ternary.stages] == ["lift", "decompose"]

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="lowering"):
            PipelineSpec.from_name("annealing")

    def test_every_registered_spec_builds(self):
        for name, spec in PIPELINE_SPECS.items():
            pipeline = spec.build()
            assert isinstance(pipeline, CompilePipeline)
            assert pipeline.name == name


class TestSerialization:
    def _sample(self):
        return PipelineSpec(
            "custom",
            (
                PipelineStage("lift", {"dim": 3}),
                PipelineStage("optimize", {"label": "mid"}),
                PipelineStage("lower", {"verify": True}),
            ),
        )

    def test_json_round_trip(self):
        spec = self._sample()
        assert PipelineSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("name", sorted(PIPELINE_SPECS))
    def test_registry_round_trips(self, name):
        spec = PIPELINE_SPECS[name]
        rebuilt = PipelineSpec.from_json(spec.to_json(indent=2))
        assert rebuilt == spec
        assert hash(rebuilt) == hash(spec)

    def test_invalid_json_raises_typed_error(self):
        with pytest.raises(SerializationError, match="invalid"):
            PipelineSpec.from_json("{not json")

    def test_missing_name_rejected(self):
        with pytest.raises(SerializationError, match="name"):
            PipelineSpec.from_dict({"stages": []})

    def test_malformed_stage_rejected(self):
        with pytest.raises(SerializationError):
            PipelineSpec.from_dict(
                {"name": "x", "stages": [{"params": {}}]}
            )
        with pytest.raises(SerializationError):
            PipelineSpec.from_dict({"name": "x", "stages": "lift"})

    def test_unknown_kind_surfaces_as_serialization_error(self):
        with pytest.raises(SerializationError, match="unknown stage"):
            PipelineSpec.from_dict(
                {"name": "x", "stages": [{"kind": "warp"}]}
            )

    def test_to_json_is_stable(self):
        spec = self._sample()
        assert json.loads(spec.to_json()) == spec.to_dict()


class TestDescribeAndWith:
    def test_describe_lists_stages(self):
        text = PIPELINE_SPECS["temporary-ternary"].describe()
        assert "temporary-ternary" in text
        assert "1. lift" in text
        assert "basis=width2" in text

    def test_with_stage_appends(self):
        base = PipelineSpec("base")
        extended = base.with_stage("optimize", label="tail")
        assert len(base.stages) == 0
        assert [s.kind for s in extended.stages] == ["optimize"]

    def test_stage_kinds_is_closed_vocabulary(self):
        assert STAGE_KINDS == (
            "lift", "decompose", "optimize", "route", "lower", "schedule"
        )


class TestResolvePipeline:
    def test_none_and_pipeline_pass_through(self):
        assert resolve_pipeline(None) is None
        pipeline = CompilePipeline([], name="empty")
        assert resolve_pipeline(pipeline) is pipeline

    def test_spec_resolves(self):
        pipeline = resolve_pipeline(PIPELINE_SPECS["lowering"])
        assert pipeline.pass_names == REGISTERED_PASS_NAMES["lowering"]

    def test_resolved_pipeline_carries_the_registered_name(self):
        pipeline = resolve_pipeline(
            PipelineSpec.from_name("hardware-grid-opt")
        )
        assert pipeline.name == "hardware-grid-opt"
        assert pipeline.pass_names == _HARDWARE_OPT

    @pytest.mark.parametrize("name", ["hardware-grid-opt", "annealing"])
    def test_name_strings_rejected(self, name):
        with pytest.raises(TypeError, match="PipelineSpec.from_name"):
            resolve_pipeline(name)

    def test_other_types_raise_type_error(self):
        with pytest.raises(TypeError, match="cannot resolve"):
            resolve_pipeline(42)


class TestExecuteIntegration:
    def test_execute_accepts_spec(self):
        result = execute(
            _bell_pair(),
            backend="statevector",
            pipeline=PIPELINE_SPECS["lowering"],
        )
        assert result.metadata["pipeline"] == "lowering"
        assert abs(
            result.probability_of((0, 0)) + result.probability_of((1, 1))
            - 1.0
        ) < 1e-9

    def test_execute_accepts_interop_spec(self):
        result = execute(
            _bell_pair(),
            backend="statevector",
            pipeline=PipelineSpec.from_name("temporary-ternary"),
        )
        assert result.metadata["pipeline"] == "temporary-ternary"

    def test_execute_rejects_name_strings(self):
        with pytest.raises(TypeError, match="PipelineSpec.from_name"):
            execute(_bell_pair(), pipeline="lowering")
