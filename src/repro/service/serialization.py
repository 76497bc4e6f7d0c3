"""JSON round-trip for :class:`~repro.execution.results.RunResult`.

The persistent :class:`~repro.service.store.ResultStore` and the serve
protocol both need results as plain JSON: every payload a backend can
produce — classical values, state vectors, density matrices, sampled
measurements, fidelity estimates — flattens to nested lists and
primitives, and rebuilds into the same result type.  Complex arrays are
stored as parallel real/imaginary lists; wires as (index, dimension)
pairs, mirroring the circuit wire format.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from ..exceptions import SerializationError
from ..execution.results import FidelityResult, RunResult
from ..qudits import Qudit
from ..sim.density import DensityTensor
from ..sim.fidelity import FidelityEstimate
from ..sim.measurement import MeasurementResult
from ..sim.state import StateVector

#: Version tag of the serialized result format.
RESULT_SCHEMA = "repro-result/v1"


def _wires_to_data(wires) -> list[list[int]]:
    return [[w.index, w.dimension] for w in wires]


def _wires_from_data(data) -> list[Qudit]:
    return [Qudit(int(index), int(dimension)) for index, dimension in data]


def _complex_to_data(array: np.ndarray) -> dict:
    flat = np.asarray(array, dtype=complex).reshape(-1)
    return {
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def _complex_from_data(data: dict, shape: tuple[int, ...]) -> np.ndarray:
    return (
        np.asarray(data["re"], dtype=float)
        + 1j * np.asarray(data["im"], dtype=float)
    ).reshape(shape)


def _params_to_data(params: Mapping) -> dict:
    """Sweep params / metadata as JSON; reject what cannot round-trip."""
    mapping = dict(params)
    try:
        json.dumps(mapping)
    except (TypeError, ValueError) as error:
        raise SerializationError(
            f"result params/metadata are not JSON-serializable: {error}"
        ) from error
    return mapping


def result_to_dict(result: RunResult) -> dict:
    """``result`` as a JSON-ready dict (see :func:`result_from_dict`)."""
    data: dict = {
        "schema": RESULT_SCHEMA,
        "type": type(result).__name__,
        "backend": result.backend,
        "wires": _wires_to_data(result.wires),
        "params": _params_to_data(result.params),
        "metadata": _params_to_data(result.metadata),
        "seed": result.seed,
        "values": list(result.values) if result.values is not None else None,
        "state": None,
        "density": None,
        "measurements": None,
    }
    if result.state is not None:
        data["state"] = {
            "wires": _wires_to_data(result.state.wires),
            "amplitudes": _complex_to_data(result.state.tensor),
        }
    if result.density is not None:
        data["density"] = {
            "wires": _wires_to_data(result.density.wires),
            "matrix": _complex_to_data(result.density.matrix),
        }
    if result.measurements is not None:
        measurements = result.measurements
        if measurements.is_counts_backed:
            # Counts-backed results serialize as the histogram itself:
            # U outcome rows + counts, not shots x wires samples — a
            # million-shot record stays a few lines of JSON.
            counter = measurements.counts()
            data["measurements"] = {
                "wires": _wires_to_data(measurements.wires),
                "outcomes": [list(k) for k in counter],
                "counts": [int(v) for v in counter.values()],
            }
        else:
            data["measurements"] = {
                "wires": _wires_to_data(measurements.wires),
                "samples": measurements.samples.tolist(),
            }
    if isinstance(result, FidelityResult):
        estimate = result.estimate
        data["estimate"] = None
        if estimate is not None:
            data["estimate"] = {
                "circuit_name": estimate.circuit_name,
                "noise_model_name": estimate.noise_model_name,
                "trials": estimate.trials,
                "mean_fidelity": estimate.mean_fidelity,
                "std_error": estimate.std_error,
                "mean_gate_errors": estimate.mean_gate_errors,
                "mean_idle_jumps": estimate.mean_idle_jumps,
            }
    return data


def result_from_dict(data: Mapping) -> RunResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    if data.get("schema") != RESULT_SCHEMA:
        raise SerializationError(
            f"unknown result schema {data.get('schema')!r} "
            f"(expected {RESULT_SCHEMA!r})"
        )
    wires = tuple(_wires_from_data(data["wires"]))
    state = None
    if data.get("state") is not None:
        state_wires = _wires_from_data(data["state"]["wires"])
        shape = tuple(w.dimension for w in state_wires)
        state = StateVector(
            state_wires,
            _complex_from_data(data["state"]["amplitudes"], shape),
        )
    density = None
    if data.get("density") is not None:
        density_wires = _wires_from_data(data["density"]["wires"])
        dim = int(np.prod([w.dimension for w in density_wires]))
        density = DensityTensor(
            density_wires,
            _complex_from_data(data["density"]["matrix"], (dim, dim)),
        )
    measurements = None
    if data.get("measurements") is not None:
        measured = data["measurements"]
        measured_wires = _wires_from_data(measured["wires"])
        if "samples" in measured:
            measurements = MeasurementResult(
                measured_wires,
                np.asarray(measured["samples"], dtype=np.int64),
            )
        else:
            measurements = MeasurementResult(
                measured_wires,
                outcomes=np.asarray(
                    measured["outcomes"], dtype=np.int64
                ).reshape(-1, len(measured_wires)),
                counts=np.asarray(measured["counts"], dtype=np.int64),
            )
    common = dict(
        backend=data["backend"],
        wires=wires,
        params=dict(data.get("params") or {}),
        seed=data.get("seed"),
        values=(
            tuple(int(v) for v in data["values"])
            if data.get("values") is not None
            else None
        ),
        state=state,
        density=density,
        measurements=measurements,
        metadata=dict(data.get("metadata") or {}),
    )
    if data.get("type") == "FidelityResult":
        estimate = None
        if data.get("estimate") is not None:
            estimate = FidelityEstimate(**data["estimate"])
        return FidelityResult(estimate=estimate, **common)
    return RunResult(**common)


def result_to_json(result: RunResult, indent: int | None = None) -> str:
    """``result`` serialized to a JSON string."""
    return json.dumps(result_to_dict(result), indent=indent)


def result_from_json(text: str) -> RunResult:
    """Rebuild a result from :func:`result_to_json` output."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(
            f"malformed result JSON: {error}"
        ) from error
    return result_from_dict(data)
