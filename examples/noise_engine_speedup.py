"""Time the v1 dense-kron noise kernels against the v2 axis-local ones.

The workload is the acceptance benchmark of the noise-engine rebuild: a
5-qutrit Generalized Toffoli (the paper's log-depth tree at N=4
controls) evolved as an exact density matrix under amplitude damping —
once through the preserved v1 engine that embeds every operator into the
full 243 x 243 space with ``kron``, once through the v2 engine that
contracts only the touched wires' row/column legs.  The same circuit is
then pushed through the trajectory estimator with looped vs fused
shots.

Run from the repository root::

    PYTHONPATH=src python examples/noise_engine_speedup.py

Expect a several-fold win on both comparisons here.  Amplitude damping
is the *cheap* channel (3 Kraus operators); under a full gate-error
preset, where every two-qutrit gate carries an 80-term depolarizing
channel, the gap widens to ~25x — that run is recorded in the committed
``BENCH_noise.json`` (regenerate with ``python -m repro bench``).
"""

import time

import numpy as np

from repro.noise.model import NoiseModel
from repro.sim.dense_reference import DenseDensityMatrixSimulator
from repro.sim.density import DensityMatrixSimulator
from repro.sim.fidelity import (
    estimate_circuit_fidelity,
    estimate_circuit_fidelity_looped,
)
from repro.sim.state import StateVector
from repro.toffoli.registry import construction_circuit

#: Pure amplitude damping (eq. 9): no gate errors, T1 comparable to the
#: circuit duration so the idle channels actually bite.
AMPLITUDE_DAMPING = NoiseModel(
    name="amplitude_damping",
    p1=0.0,
    p2=0.0,
    gate_time_1q=100e-9,
    gate_time_2q=300e-9,
    t1=30e-6,
    description="T1 relaxation only, tuned to be visible at depth ~16",
)


def main() -> None:
    circuit = construction_circuit("qutrit_tree", 4)
    wires = circuit.all_qudits()
    print(
        f"5-qutrit Generalized Toffoli: {circuit.num_operations} ops, "
        f"depth {circuit.depth}, Hilbert dim "
        f"{int(np.prod([w.dimension for w in wires]))}"
    )
    initial = StateVector.zero(wires)

    new_sim = DensityMatrixSimulator(AMPLITUDE_DAMPING)
    new_sim.run(circuit, initial)  # warm the kernel caches
    start = time.perf_counter()
    rho_new = new_sim.run(circuit, initial)
    new_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rho_old = DenseDensityMatrixSimulator(AMPLITUDE_DAMPING).run(
        circuit, initial
    )
    old_seconds = time.perf_counter() - start

    diff = float(np.abs(rho_new.matrix - rho_old.matrix).max())
    print("\ndensity matrix under amplitude damping:")
    print(f"  v2 axis-local kernels : {new_seconds * 1000:8.1f} ms")
    print(f"  v1 dense kron         : {old_seconds * 1000:8.1f} ms")
    print(f"  speedup               : {old_seconds / new_seconds:8.1f} x")
    print(f"  max |rho_v2 - rho_v1| : {diff:.2e}")

    trials = 200
    start = time.perf_counter()
    batched = estimate_circuit_fidelity(
        circuit, AMPLITUDE_DAMPING, trials=trials, seed=7
    )
    batched_seconds = time.perf_counter() - start
    start = time.perf_counter()
    looped = estimate_circuit_fidelity_looped(
        circuit, AMPLITUDE_DAMPING, trials=trials, seed=7
    )
    looped_seconds = time.perf_counter() - start
    print(f"\n{trials} trajectories under amplitude damping:")
    print(
        f"  fused engine          : {batched_seconds * 1000:8.1f} ms "
        f"(mean fidelity {batched.mean_fidelity:.4f})"
    )
    print(
        f"  looped engine         : {looped_seconds * 1000:8.1f} ms "
        f"(mean fidelity {looped.mean_fidelity:.4f})"
    )
    print(
        f"  speedup               : "
        f"{looped_seconds / batched_seconds:8.1f} x"
    )


if __name__ == "__main__":
    main()
