"""Declarative pipeline configuration: :class:`PipelineSpec`.

A :class:`PipelineSpec` is an ordered list of named stages, each a
``(kind, params)`` pair drawn from a closed stage vocabulary:

=============  =====================================================
kind           builds
=============  =====================================================
``lift``       :class:`repro.interop.LiftToQutrits` (``dim``)
``decompose``  ``basis="width2"`` -> :class:`DecomposeToWidth2`;
               ``basis="qubit"`` ->
               :class:`repro.interop.DecomposeToQubitBasis`
``optimize``   :class:`OptimizePass` (``label``, ``verify``)
``route``      :class:`RouteToTopology` (``topology``, ``router``)
``lower``      :class:`repro.interop.LowerToQubits`
               (``atol``, ``verify``)
``schedule``   ``mode="merge"`` -> :class:`MergeMoments`;
               ``mode="asap"`` -> :class:`ASAPReschedule`
=============  =====================================================

Specs are frozen values: hashable, JSON round-trippable
(:meth:`PipelineSpec.to_json` / :meth:`~PipelineSpec.from_json`), and
buildable into a :class:`CompilePipeline` any number of times.
:data:`PIPELINE_SPECS` is the one registry of named pipelines, read
through :meth:`PipelineSpec.from_name`; ``execute()`` and
``JobQueue.submit`` take the spec itself, never its name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..exceptions import SerializationError
from .passes import (
    ASAPReschedule,
    CompilePass,
    DecomposeToWidth2,
    MergeMoments,
    OptimizePass,
    RouteToTopology,
)
from .pipeline import CompilePipeline

__all__ = [
    "STAGE_KINDS",
    "PipelineStage",
    "PipelineSpec",
    "PIPELINE_SPECS",
]


def _build_lift(dim: int = 3) -> CompilePass:
    from ..interop.transform import LiftToQutrits

    return LiftToQutrits(int(dim))


def _build_decompose(basis: str = "width2") -> CompilePass:
    if basis == "width2":
        return DecomposeToWidth2()
    if basis == "qubit":
        from ..interop.qubitbasis import DecomposeToQubitBasis

        return DecomposeToQubitBasis()
    raise ValueError(
        f"decompose stage basis must be 'width2' or 'qubit', "
        f"got {basis!r}"
    )


def _build_optimize(
    label: str = "optimize", verify: "bool | str" = False
) -> CompilePass:
    return OptimizePass(label=label, verify=verify)


def _build_route(
    topology: str = "line", router: "str | None" = None
) -> CompilePass:
    return RouteToTopology(topology, router=router)


def _build_lower(
    atol: float = 1e-9, verify: bool = False
) -> CompilePass:
    from ..interop.transform import LowerToQubits

    return LowerToQubits(atol=float(atol), verify=bool(verify))


def _build_schedule(mode: str = "merge") -> CompilePass:
    if mode == "merge":
        return MergeMoments()
    if mode == "asap":
        return ASAPReschedule()
    raise ValueError(
        f"schedule stage mode must be 'merge' or 'asap', got {mode!r}"
    )


_STAGE_BUILDERS = {
    "lift": _build_lift,
    "decompose": _build_decompose,
    "optimize": _build_optimize,
    "route": _build_route,
    "lower": _build_lower,
    "schedule": _build_schedule,
}

#: The closed stage vocabulary, in canonical documentation order.
STAGE_KINDS: tuple[str, ...] = (
    "lift", "decompose", "optimize", "route", "lower", "schedule"
)


@dataclass(frozen=True)
class PipelineStage:
    """One named stage: a ``kind`` from :data:`STAGE_KINDS` plus its
    JSON-clean keyword parameters."""

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _STAGE_BUILDERS:
            raise ValueError(
                f"unknown stage kind {self.kind!r}; choose from "
                f"{list(STAGE_KINDS)}"
            )
        object.__setattr__(
            self, "params", dict(sorted(dict(self.params).items()))
        )

    def __hash__(self) -> int:
        return hash((self.kind, tuple(self.params.items())))

    def build(self) -> CompilePass:
        """Construct the compile pass this stage describes."""
        try:
            return _STAGE_BUILDERS[self.kind](**self.params)
        except TypeError as error:
            raise ValueError(
                f"bad parameters for stage {self.kind!r}: {error}"
            ) from error

    def describe(self) -> str:
        """One-line ``kind  key=value ...`` rendering."""
        rendered = " ".join(
            f"{key}={value}" for key, value in self.params.items()
        )
        return f"{self.kind:<10s} {rendered}".rstrip()

    def to_dict(self) -> dict:
        """Plain-data form (kind + params)."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineStage":
        """Rebuild a stage from :meth:`to_dict` data."""
        try:
            kind = data["kind"]
            params = dict(data.get("params", {}))
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed pipeline stage: {error}"
            ) from error
        try:
            return cls(kind, params)
        except ValueError as error:
            raise SerializationError(str(error)) from error


@dataclass(frozen=True)
class PipelineSpec:
    """A named, ordered, serializable pipeline description."""

    name: str
    stages: tuple[PipelineStage, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "stages",
            tuple(
                s
                if isinstance(s, PipelineStage)
                else PipelineStage(**s)
                for s in self.stages
            ),
        )

    def build(self) -> CompilePipeline:
        """Materialise the spec into a runnable pipeline."""
        return CompilePipeline(
            [stage.build() for stage in self.stages], name=self.name
        )

    def with_stage(
        self, kind: str, **params: object
    ) -> "PipelineSpec":
        """A new spec with one more stage appended."""
        return PipelineSpec(
            self.name, self.stages + (PipelineStage(kind, params),)
        )

    def describe(self) -> str:
        """Multi-line human-readable stage listing."""
        lines = [
            f"PipelineSpec {self.name!r} "
            f"({len(self.stages)} stage"
            f"{'' if len(self.stages) == 1 else 's'})"
        ]
        for index, stage in enumerate(self.stages, start=1):
            lines.append(f"  {index}. {stage.describe()}")
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form (name + stage list)."""
        return {
            "name": self.name,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineSpec":
        """Rebuild a spec from :meth:`to_dict` data."""
        if not isinstance(data, Mapping) or "name" not in data:
            raise SerializationError(
                "pipeline spec data must be a mapping with a 'name'"
            )
        stages_data = data.get("stages", [])
        if not isinstance(stages_data, Sequence) or isinstance(
            stages_data, (str, bytes)
        ):
            raise SerializationError(
                "pipeline spec 'stages' must be a list"
            )
        return cls(
            str(data["name"]),
            tuple(
                PipelineStage.from_dict(item) for item in stages_data
            ),
        )

    def to_json(self, indent: "int | None" = None) -> str:
        """JSON text of :meth:`to_dict` (sorted keys)."""
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            indent=indent,
            separators=None if indent else (",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        """Rebuild a spec from :meth:`to_json` text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(
                f"invalid pipeline spec JSON: {error}"
            ) from error
        return cls.from_dict(data)

    # -- the named registry ----------------------------------------------

    @classmethod
    def from_name(cls, name: str) -> "PipelineSpec":
        """The registered spec for a pipeline name.

        Covers ``"lowering"``, ``"qutrit-promotion"``, ``"optimize"``,
        the six ``"hardware-*"`` variants and the interop compilation
        paths ``"naive-lift"`` and ``"temporary-ternary"``.
        """
        try:
            return PIPELINE_SPECS[name]
        except KeyError:
            raise KeyError(
                f"unknown pipeline {name!r}; choose from "
                f"{sorted(PIPELINE_SPECS)}"
            ) from None


def _hardware_spec(
    name: str, topology: str, optimize: bool
) -> PipelineSpec:
    stages = [PipelineStage("decompose", {"basis": "width2"})]
    if optimize:
        stages.append(
            PipelineStage("optimize", {"label": "pre-route"})
        )
    stages.append(PipelineStage("route", {"topology": topology}))
    if optimize:
        stages.append(
            PipelineStage("optimize", {"label": "post-route"})
        )
    stages.append(PipelineStage("schedule", {"mode": "asap"}))
    return PipelineSpec(name, tuple(stages))


#: Every named pipeline as a spec — the single registry behind
#: :meth:`PipelineSpec.from_name` and the CLI's ``--pipeline`` choices.
PIPELINE_SPECS: dict[str, PipelineSpec] = {
    "lowering": PipelineSpec(
        "lowering",
        (
            PipelineStage("decompose", {"basis": "width2"}),
            PipelineStage("schedule", {"mode": "merge"}),
        ),
    ),
    "qutrit-promotion": PipelineSpec(
        "qutrit-promotion",
        (
            PipelineStage("lift", {"dim": 3}),
            PipelineStage("schedule", {"mode": "merge"}),
        ),
    ),
    "optimize": PipelineSpec(
        "optimize", (PipelineStage("optimize", {}),)
    ),
    "naive-lift": PipelineSpec(
        "naive-lift",
        (
            PipelineStage("decompose", {"basis": "qubit"}),
            PipelineStage("lift", {"dim": 3}),
        ),
    ),
    "temporary-ternary": PipelineSpec(
        "temporary-ternary",
        (
            PipelineStage("lift", {"dim": 3}),
            PipelineStage("decompose", {"basis": "width2"}),
        ),
    ),
}
for _kind, _topology in (
    ("line", "line"),
    ("grid", "grid_2d"),
    ("heavy-hex", "heavy_hex"),
):
    PIPELINE_SPECS[f"hardware-{_kind}"] = _hardware_spec(
        f"hardware-{_kind}", _topology, optimize=False
    )
    PIPELINE_SPECS[f"hardware-{_kind}-opt"] = _hardware_spec(
        f"hardware-{_kind}-opt", _topology, optimize=True
    )
