"""Statistical battery: the fused engine against the exact density engine
and the looped oracle.

Each configuration runs every trajectory from one fixed binary-subspace
input, so the density engine's fidelity for that input is the exact
mean.  The fused mean must lie within four standard errors of it, and
within four combined standard errors of the looped oracle's mean.  The
configurations cover the four ``sim-heavy`` Fig. 11 workloads, trapped
ion dephasing (BARE_QUTRIT) and gate errors alone (TI_QUBIT), plus one
mixed qubit/qutrit circuit under heavy damping, dephasing and gate
errors, where dropping any noise term or the no-jump renormalization
moves the mean by many standard errors.
"""

import math

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.gates.controlled import ControlledGate
from repro.gates.qubit import H
from repro.gates.qutrit import X01, X_PLUS_1
from repro.noise.model import NoiseModel
from repro.noise.presets import BARE_QUTRIT, SC, SC_T1_GATES, TI_QUBIT
from repro.qudits import Qudit
from repro.sim.density import DensityMatrixSimulator
from repro.sim.state import StateVector
from repro.sim.statevector import StateVectorSimulator
from repro.sim.trajectory import (
    BatchedTrajectorySimulator,
    TrajectorySimulator,
)
from repro.toffoli.registry import build_toffoli

#: Heavy damping (lambda_1 ~ 0.05 per 1q moment), dephasing kicks and
#: gate errors at once.
HEAVY = NoiseModel(
    "heavy", 2e-3, 1e-3, 1e-5, 3e-5, t1=2e-4, idle_dephasing_rate=300.0
)


def _mixed_circuit():
    """Two qutrits and a qubit: permutations, dense control blocks and a
    dense 1q gate, across (3, 3), (3, 2) and (2,) wires."""
    a, b, c = Qudit(0, 3), Qudit(1, 3), Qudit(2, 2)
    circuit = Circuit([
        H.on(c),
        ControlledGate(X_PLUS_1, (3,), (1,)).on(a, b),
        ControlledGate(H, (3,), (2,)).on(b, c),
        ControlledGate(X01, (2,), (1,)).on(c, a),
        ControlledGate(X_PLUS_1.inverse(), (3,), (1,)).on(a, b),
        H.on(c),
    ])
    return circuit, [a, b, c]


def _construction(name, num_controls):
    built = build_toffoli(name, num_controls)
    return built.circuit, list(built.all_wires)


#: (label, circuit factory, noise model, fused trials, looped trials).
CONFIGS = [
    ("qutrit_tree-SC", lambda: _construction("qutrit_tree", 5), SC,
     2000, 150),
    ("qutrit_tree-SC+T1+GATES", lambda: _construction("qutrit_tree", 5),
     SC_T1_GATES, 2000, 150),
    ("qubit_ancilla_free-SC",
     lambda: _construction("qubit_ancilla_free", 5), SC, 2000, 30),
    ("qubit_ancilla_free-SC+T1+GATES",
     lambda: _construction("qubit_ancilla_free", 5), SC_T1_GATES,
     2000, 30),
    ("qutrit_tree-BARE_QUTRIT", lambda: _construction("qutrit_tree", 4),
     BARE_QUTRIT, 2000, 300),
    ("qubit_ancilla_free-TI_QUBIT",
     lambda: _construction("qubit_ancilla_free", 4), TI_QUBIT, 2000, 300),
    ("mixed-HEAVY", _mixed_circuit, HEAVY, 2000, 300),
]


def _mean_and_error(fidelities, exact):
    """Sample mean and its standard error: the larger of the sample's
    own and the worst case for values in [0, 1] with mean ``exact``.

    Error events are rare, so a short sample can miss them all and
    report a near-zero spread; the worst case bounds it.
    """
    values = np.asarray(fidelities)
    sample = values.std(ddof=1) / math.sqrt(len(values))
    bound = math.sqrt(max(exact * (1.0 - exact), 0.0) / len(values))
    return float(values.mean()), max(sample, bound)


@pytest.mark.slow
@pytest.mark.parametrize(
    "label, factory, model, fused_trials, looped_trials", CONFIGS,
    ids=[c[0] for c in CONFIGS],
)
def test_fused_mean_matches_exact_and_looped(
    label, factory, model, fused_trials, looped_trials
):
    circuit, wires = factory()
    rng = np.random.default_rng(2019)
    initial = StateVector.random(
        wires, rng, levels_per_wire={w: 2 for w in wires}
    )
    dim = math.prod(w.dimension for w in wires)
    exact = DensityMatrixSimulator(model, max_dim=dim).mean_fidelity(
        circuit, initial
    )
    fused = BatchedTrajectorySimulator(model, rng).run_batch(
        circuit, [initial] * fused_trials
    )
    fused_mean, fused_error = _mean_and_error(
        [r.fidelity for r in fused], exact
    )
    assert abs(fused_mean - exact) <= 4 * fused_error, (
        label, fused_mean, exact, fused_error,
    )
    looped = TrajectorySimulator(model, rng)
    ideal = StateVectorSimulator().run(circuit, initial)
    looped_mean, looped_error = _mean_and_error(
        [
            looped.run_trajectory(circuit, initial, ideal).fidelity
            for _ in range(looped_trials)
        ],
        exact,
    )
    combined = math.hypot(fused_error, looped_error)
    assert abs(fused_mean - looped_mean) <= 4 * combined, (
        label, fused_mean, looped_mean, combined,
    )
