"""Data generators and text renderers for the paper's figures.

* Figure 9 — circuit depth vs N for QUBIT, QUBIT+ANCILLA, QUTRIT.
* Figure 10 — two-qudit gate count vs N for the same three circuits.
* Figure 11 — mean fidelity of each circuit under each noise model.

The paper's reported fits are included as reference lines so measured
values can be eyeballed against them in the bench output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..noise.model import NoiseModel
from ..noise.presets import (
    BARE_QUTRIT, DRESSED_QUTRIT, SUPERCONDUCTING_MODELS, TI_QUBIT,
)
from ..sim.fidelity import FidelityEstimate
from .metrics import construction_metrics

#: The three benchmark circuits of Figures 9-11, paper label -> registry name.
BENCHMARK_CIRCUITS: dict[str, str] = {
    "QUBIT": "qubit_ancilla_free",
    "QUBIT+ANCILLA": "qubit_one_dirty",
    "QUTRIT": "qutrit_tree",
}

#: Paper-reported asymptotic fits (Figures 9 and 10).
PAPER_DEPTH_FITS: dict[str, Callable[[float], float]] = {
    "QUBIT": lambda n: 633.0 * n,
    "QUBIT+ANCILLA": lambda n: 76.0 * n,
    "QUTRIT": lambda n: 38.0 * np.log2(n),
}
PAPER_COUNT_FITS: dict[str, Callable[[float], float]] = {
    "QUBIT": lambda n: 397.0 * n,
    "QUBIT+ANCILLA": lambda n: 48.0 * n,
    "QUTRIT": lambda n: 6.0 * n,
}

#: Paper-reported Figure 11 fidelities (percent), (circuit, model) -> value.
PAPER_FIG11_PERCENT: dict[tuple[str, str], float] = {
    ("QUBIT", "SC"): 0.01,
    ("QUBIT", "SC+T1"): 0.56,
    ("QUBIT", "SC+GATES"): 0.01,
    ("QUBIT", "SC+T1+GATES"): 26.1,
    ("QUBIT+ANCILLA", "SC"): 18.5,
    ("QUBIT+ANCILLA", "SC+T1"): 52.3,
    ("QUBIT+ANCILLA", "SC+GATES"): 30.2,
    ("QUBIT+ANCILLA", "SC+T1+GATES"): 84.1,
    ("QUTRIT", "SC"): 56.8,
    ("QUTRIT", "SC+T1"): 65.9,
    ("QUTRIT", "SC+GATES"): 83.1,
    ("QUTRIT", "SC+T1+GATES"): 94.7,
    ("QUBIT", "TI_QUBIT"): 44.7,
    ("QUBIT+ANCILLA", "TI_QUBIT"): 89.9,
    ("QUTRIT", "BARE_QUTRIT"): 94.9,
    ("QUTRIT", "DRESSED_QUTRIT"): 96.1,
}

#: Figure 11's 16 bars in the paper's order: (circuit label, noise model).
FIG11_PAIRS: tuple[tuple[str, NoiseModel], ...] = (
    *((label, model) for label in BENCHMARK_CIRCUITS
      for model in SUPERCONDUCTING_MODELS),
    ("QUBIT", TI_QUBIT), ("QUBIT+ANCILLA", TI_QUBIT),
    ("QUTRIT", BARE_QUTRIT), ("QUTRIT", DRESSED_QUTRIT),
)


def fig9_depth_data(
    control_counts: Sequence[int],
) -> dict[str, list[int]]:
    """Measured depth per benchmark circuit across N (Figure 9's series)."""
    return {
        label: [
            construction_metrics(name, n).depth for n in control_counts
        ]
        for label, name in BENCHMARK_CIRCUITS.items()
    }


def fig10_gate_count_data(
    control_counts: Sequence[int],
) -> dict[str, list[int]]:
    """Measured two-qudit gate counts across N (Figure 10's series)."""
    return {
        label: [
            construction_metrics(name, n).two_qudit_gates
            for n in control_counts
        ]
        for label, name in BENCHMARK_CIRCUITS.items()
    }


@dataclass(frozen=True)
class Fig11Point:
    """One bar of Figure 11: a circuit/noise-model fidelity estimate."""

    circuit_label: str
    noise_model: str
    estimate: FidelityEstimate
    paper_percent: float | None


def fig11_fidelity_data(
    pairs: Sequence[tuple[str, NoiseModel]],
    num_controls: int,
    trials: int,
    seed: int = 2019,
) -> list[Fig11Point]:
    """Run the Figure 11 experiment for the given (circuit, model) pairs.

    ``num_controls`` is 13 in the paper (14-input gate); the ``paper``
    bench suite runs :data:`FIG11_PAIRS` at 8 controls and 40 trials per
    bar.  Bar ``i`` is seeded ``seed + i``.
    """
    from ..execution.facade import execute

    points = []
    for offset, (label, model) in enumerate(pairs):
        run = execute(
            BENCHMARK_CIRCUITS[label],
            num_controls=num_controls,
            backend="trajectory",
            noise_model=model,
            trials=trials,
            seed=seed + offset,
        )
        estimate = replace(run.estimate, circuit_name=label)
        points.append(
            Fig11Point(
                circuit_label=label,
                noise_model=model.name,
                estimate=estimate,
                paper_percent=PAPER_FIG11_PERCENT.get((label, model.name)),
            )
        )
    return points


def render_series_table(
    control_counts: Sequence[int],
    measured: Mapping[str, Sequence[float]],
    paper_fits: Mapping[str, Callable[[float], float]],
    value_name: str,
) -> str:
    """Measured-vs-paper table for a Figure 9/10 style sweep."""
    lines = [
        f"{'circuit':15s} {'N':>6s} {value_name + ' (measured)':>22s} "
        f"{'paper fit':>12s}"
    ]
    for label, series in measured.items():
        fit = paper_fits.get(label)
        for n, value in zip(control_counts, series):
            reference = f"{fit(n):12.0f}" if fit else " " * 12
            lines.append(f"{label:15s} {n:6d} {value:22.0f} {reference}")
    return "\n".join(lines)


def render_fidelity_bars(points: Sequence[Fig11Point]) -> str:
    """ASCII bar chart of Figure 11 with paper values alongside."""
    lines = [
        f"{'circuit':15s} {'noise model':15s} {'measured':>9s} "
        f"{'paper':>7s}  bar"
    ]
    for point in points:
        measured = 100 * point.estimate.mean_fidelity
        paper = (
            f"{point.paper_percent:6.1f}%"
            if point.paper_percent is not None
            else "   -   "
        )
        bar = "#" * int(round(measured / 2))
        lines.append(
            f"{point.circuit_label:15s} {point.noise_model:15s} "
            f"{measured:8.1f}% {paper}  {bar}"
        )
    return "\n".join(lines)
