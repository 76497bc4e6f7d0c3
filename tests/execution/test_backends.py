"""Backend protocol conformance and cross-backend parity.

The headline guarantees: every registered backend satisfies the
``Backend`` protocol, all backends agree on small classical circuits,
and the trajectory backend's sampled mean matches the exact
density-matrix reference within statistical uncertainty.
"""

from __future__ import annotations

import inspect
from itertools import product

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import SimulationError
from repro.execution import (
    Backend,
    available_backends,
    execute,
    resolve_backend,
)
from repro.execution.backends import BACKEND_FACTORIES
from repro.gates.controlled import ControlledGate
from repro.gates.qutrit import X01, X_PLUS_1
from repro.noise.model import NoiseModel
from repro.qudits import qutrits, total_dimension
from repro.sim.state import StateVector
from repro.toffoli.registry import CONSTRUCTIONS, build_toffoli

NOISELESS = NoiseModel("clean", 0.0, 0.0, 1e-7, 3e-7, t1=None)
DEPOL = NoiseModel("depol", 2e-3, 1e-3, 1e-7, 3e-7, t1=None)


def _permutation_circuit():
    """A 3-qutrit classical circuit every backend can execute."""
    a, b, c = qutrits(3)
    circuit = Circuit(
        [
            X01.on(a),
            ControlledGate(X_PLUS_1, (3,), (1,)).on(a, b),
            ControlledGate(X01, (3,), (2,)).on(b, c),
            X_PLUS_1.on(b),
        ]
    )
    return circuit, [a, b, c]


class TestRegistry:
    def test_four_backends_registered(self):
        assert {"classical", "statevector", "density", "trajectory"} <= set(
            available_backends()
        )

    def test_all_registered_backends_satisfy_protocol(self):
        for name in available_backends():
            backend = resolve_backend(name, noise_model=NOISELESS)
            assert isinstance(backend, Backend)
            assert backend.name == name
            assert backend.capabilities.kind

    def test_every_backend_run_takes_the_same_keywords(self):
        # The facade hands every backend the same run options, so no
        # backend may need a keyword of its own.
        def keywords(run):
            return [
                (p.name, p.kind, p.default)
                for p in inspect.signature(run).parameters.values()
            ]

        protocol = keywords(Backend.run)[1:]  # drop self
        for name, factory in BACKEND_FACTORIES.items():
            assert keywords(factory(NOISELESS).run) == protocol, name

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            resolve_backend("qpu")

    def test_noisy_backend_needs_model(self):
        with pytest.raises(ValueError, match="noise model"):
            resolve_backend("trajectory")


class TestBackendParity:
    """All backends agree on classical circuits (satellite requirement)."""

    @pytest.mark.parametrize(
        "values", list(product([0, 1], repeat=3))
    )
    def test_classical_statevector_density_agree(self, values):
        circuit, wires = _permutation_circuit()
        classical = execute(
            circuit, backend="classical", wires=wires, initial=values
        )
        statevector = execute(
            circuit, backend="statevector", wires=wires, initial=values
        )
        density = execute(
            circuit,
            backend="density",
            noise_model=NOISELESS,
            wires=wires,
            initial=values,
        )
        assert np.isclose(
            statevector.probability_of(classical.values), 1.0, atol=1e-9
        )
        assert np.isclose(
            density.probability_of(classical.values), 1.0, atol=1e-9
        )

    def test_trajectory_mean_within_ci_of_density(self):
        """Trajectory sampling converges to the exact reference (Sec 6.2)."""
        circuit, wires = _permutation_circuit()
        rng = np.random.default_rng(20190622)
        caps = {w: 2 for w in wires}
        exact = np.mean(
            [
                execute(
                    circuit,
                    backend="density",
                    noise_model=DEPOL,
                    wires=wires,
                    initial=StateVector.random(
                        wires, rng, levels_per_wire=caps
                    ),
                ).metadata["fidelity_vs_ideal"]
                for _ in range(12)
            ]
        )
        sampled = execute(
            circuit,
            backend="trajectory",
            noise_model=DEPOL,
            wires=wires,
            trials=400,
            seed=7,
        )
        tolerance = max(3 * sampled.std_error, 0.02)
        assert abs(sampled.mean_fidelity - exact) < tolerance

    def test_classical_backend_rejects_state_vector_input(self):
        circuit, wires = _permutation_circuit()
        with pytest.raises(SimulationError, match="basis values"):
            execute(
                circuit,
                backend="classical",
                wires=wires,
                initial=StateVector.zero(wires),
            )

    def test_trajectory_backend_rejects_initial(self):
        circuit, wires = _permutation_circuit()
        with pytest.raises(SimulationError, match="Algorithm 1"):
            execute(
                circuit,
                backend="trajectory",
                noise_model=DEPOL,
                wires=wires,
                initial=(0, 0, 0),
                trials=1,
            )


class TestAllConstructionsAllBackends:
    """Every Table 1 construction runs through execute() on 3+ backends."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_statevector(self, name):
        built = build_toffoli(name, 3)
        values = [1, 1, 1, 0] + [0] * built.ancilla_count
        expected = list(values)
        expected[3] = 1  # all controls active -> target flips
        result = execute(
            built, backend="statevector", initial=values
        )
        assert np.isclose(
            result.probability_of(expected), 1.0, atol=1e-7
        )

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_density(self, name):
        built = build_toffoli(name, 3)
        if total_dimension(built.all_wires) > 128:
            pytest.skip("density reference capped at 128 dimensions")
        values = [1, 1, 1, 0] + [0] * built.ancilla_count
        result = execute(
            built,
            backend="density",
            noise_model=NOISELESS,
            initial=values,
        )
        assert np.isclose(
            result.metadata["fidelity_vs_ideal"], 1.0, atol=1e-7
        )

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_trajectory(self, name):
        result = execute(
            name,
            num_controls=3,
            backend="trajectory",
            noise_model=DEPOL,
            trials=4,
            seed=5,
        )
        assert result.trials == 4
        assert 0.0 <= result.mean_fidelity <= 1.0 + 1e-9
