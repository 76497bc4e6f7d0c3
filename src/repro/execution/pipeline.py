"""Ordered pass pipelines and the compiled-circuit record.

A :class:`CompilePipeline` runs a sequence of
:class:`~repro.execution.passes.CompilePass` steps and returns a
:class:`CompiledCircuit` carrying the final circuit plus per-pass
metadata (gate counts, SWAP overhead, depth deltas), so benchmarks can
report exactly what each stage cost — the paper's depth/gate-count
accounting (Figures 9 and 10) falls out of these reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..circuits.circuit import Circuit
from .passes import CompilePass


@dataclass(frozen=True)
class CompiledCircuit:
    """Output of a pipeline run: the circuit plus a stage-by-stage trace."""

    circuit: Circuit
    pass_names: tuple[str, ...]
    pass_metadata: tuple[dict, ...]
    input_depth: int
    input_operations: int

    @property
    def depth(self) -> int:
        """Depth of the compiled circuit."""
        return self.circuit.depth

    @property
    def num_operations(self) -> int:
        """Gate count of the compiled circuit."""
        return self.circuit.num_operations

    def report(self) -> str:
        """Human-readable per-pass summary."""
        lines = [
            f"input: depth={self.input_depth} "
            f"ops={self.input_operations}"
        ]
        for name, meta in zip(self.pass_names, self.pass_metadata):
            detail = ", ".join(f"{k}={v}" for k, v in meta.items())
            lines.append(f"{name}: {detail}" if detail else name)
        lines.append(
            f"output: depth={self.depth} ops={self.num_operations}"
        )
        return "\n".join(lines)


class CompilePipeline:
    """An immutable ordered chain of compile passes."""

    def __init__(
        self, passes: Sequence[CompilePass] = (), name: str = "pipeline"
    ) -> None:
        self._passes = tuple(passes)
        self._name = name

    @property
    def name(self) -> str:
        """Pipeline label used in reports and cache keys."""
        return self._name

    @property
    def passes(self) -> tuple[CompilePass, ...]:
        """The passes, in execution order."""
        return self._passes

    @property
    def pass_names(self) -> tuple[str, ...]:
        """Names of the passes, in execution order."""
        return tuple(p.name for p in self._passes)

    def __iter__(self) -> Iterator[CompilePass]:
        return iter(self._passes)

    def __len__(self) -> int:
        return len(self._passes)

    def then(self, *passes: CompilePass) -> "CompilePipeline":
        """A new pipeline with ``passes`` appended."""
        return CompilePipeline(self._passes + passes, name=self._name)

    def compile(self, circuit: Circuit) -> CompiledCircuit:
        """Run every pass in order and collect the stage trace."""
        trace: list[dict] = []
        current = circuit
        for compile_pass in self._passes:
            compile_pass.last_metadata = {}
            current = compile_pass.transform(current)
            trace.append(dict(compile_pass.last_metadata))
        return CompiledCircuit(
            circuit=current,
            pass_names=self.pass_names,
            pass_metadata=tuple(trace),
            input_depth=circuit.depth,
            input_operations=circuit.num_operations,
        )

    def __call__(self, circuit: Circuit) -> CompiledCircuit:
        return self.compile(circuit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = " -> ".join(self.pass_names) or "identity"
        return f"<CompilePipeline {self._name}: {inner}>"

