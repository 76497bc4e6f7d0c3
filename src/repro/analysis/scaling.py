"""Scaling-law identification for measured circuit costs.

Figure 9/10 and Table 1 report asymptotic classes (log N, N, N^2) with
leading coefficients (38 log2 N, 633 N, ...).  Given measured (N, cost)
points, :func:`best_fit` selects the model with the lowest relative
residual among single-coefficient candidates, and reports the coefficient
so benchmarks can print "measured ~6.9 N vs paper's 6 N" style lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Candidate single-coefficient scaling models: name -> basis function.
MODELS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "log2(N)": lambda n: np.log2(n),
    "N": lambda n: n.astype(float),
    "N*log2(N)": lambda n: n * np.log2(n),
    "N^2": lambda n: n.astype(float) ** 2,
    "log2(N)^2": lambda n: np.log2(n) ** 2,
}


@dataclass(frozen=True)
class ScalingFit:
    """A fitted single-coefficient scaling law ``cost ~ coefficient * f(N)``."""

    model: str
    coefficient: float
    relative_rmse: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"~{self.coefficient:.3g} {self.model} "
            f"(rel. RMSE {self.relative_rmse:.1%})"
        )


def fit_model(
    control_counts: Sequence[int],
    costs: Sequence[float],
    model: str,
) -> ScalingFit:
    """Least-squares fit of ``costs ~ c * f(N)`` for one named model."""
    if model not in MODELS:
        raise KeyError(f"unknown scaling model {model!r}")
    n = np.asarray(control_counts, dtype=float)
    y = np.asarray(costs, dtype=float)
    if n.shape != y.shape or n.size < 2:
        raise ValueError("need matching N/cost arrays with 2+ points")
    basis = MODELS[model](n)
    coefficient = float(basis @ y / (basis @ basis))
    predictions = coefficient * basis
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = (predictions - y) / np.where(y == 0, 1.0, y)
    rmse = float(np.sqrt(np.mean(relative**2)))
    return ScalingFit(model=model, coefficient=coefficient, relative_rmse=rmse)


def best_fit(
    control_counts: Sequence[int],
    costs: Sequence[float],
    candidates: Sequence[str] | None = None,
) -> ScalingFit:
    """The candidate model with the lowest relative RMSE."""
    candidates = list(candidates) if candidates else list(MODELS)
    fits = [fit_model(control_counts, costs, m) for m in candidates]
    return min(fits, key=lambda fit: fit.relative_rmse)

