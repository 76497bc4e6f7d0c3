"""Noise-free state-vector simulation.

The v2 hot path exploits structure.  A run plans its gates a moment at
a time with :class:`repro.sim.kernels.GatePlan`, the planner the
trajectory engine shares, and runs the plan's steps on the one register
it owns (:func:`repro.sim.kernels.apply_steps`):

* permutation gates (the bulk of the Toffoli catalog) compose into
  segments, each one cached full-register gather, so a
  permutation-only circuit costs a single pass over the amplitudes per
  run, however deep it is.  A moment of permutation gates extends the
  open segment; a moment with other gates ends it, and its own
  permutation gates join the segment if one is open or open the next
  one if not (the segment rule of :class:`~repro.sim.kernels.GatePlan`);
* a diagonal gate (T, T^-1, a fused phase gate, a controlled phase) is
  one in-place multiply of its phase tensor broadcast onto its axes;
* any other :class:`~repro.gates.controlled.ControlledGate` updates
  only its control block, and the remaining gates pay a dense
  contraction through the gate-kernel cache.

Either way a gate that occurs many times in a circuit — or across the
thousands of basis inputs exhaustive verification runs — lowers exactly
once per canonical spec.  Registers above 2^18 amplitudes build no
gathers: every gate is a multiply or runs on its own control block or
kernel, as in the trajectory engine, so no register-sized index array
is kept.

Two knobs tune bulk sweeps:

* ``dtype=np.complex64`` halves the memory traffic of wide sweeps; the
  permutation fast path is rounding-free in both precisions, and the
  multiplies and the dense fallback use per-precision cached kernels
  (parity bounds in docs/SIMULATORS.md, enforced by the property
  suite);
* ``permutation_fast_path=False`` forces every gate through the dense
  contraction (no gathers, no multiplies, no control blocks) — the
  pre-v2 engine, preserved as the parity oracle for tests and
  ``BENCH_state.json``.

Terminal sampling ships here too: :meth:`StateVectorSimulator
.sample_counts` runs the circuit once and draws any number of shots
directly from the final-state probabilities (no per-shot trajectory
work) — see :func:`repro.sim.measurement.sample_counts`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..qudits import Qudit
from .kernels import GatePlan
from .measurement import MeasurementResult, sample_counts
from .state import StateVector


def circuit_steps(
    circuit: Circuit,
    wires: Sequence[Qudit],
    dtype: "np.dtype | type" = np.complex128,
) -> Iterator[tuple]:
    """``circuit``'s :class:`~repro.sim.kernels.GatePlan` steps on a
    register over ``wires``, planned moment by moment as they are
    consumed; the open segment closes after the last moment."""
    axis = {wire: k for k, wire in enumerate(wires)}
    plan = GatePlan([wire.dimension for wire in wires], dtype=dtype)
    for moment in circuit:
        yield from plan.moment(
            [(op, [axis[w] for w in op.qudits]) for op in moment]
        )
    yield from plan.close()


class StateVectorSimulator:
    """Applies a circuit to a state vector, moment by moment."""

    def __init__(
        self,
        dtype: "np.dtype | type | None" = None,
        permutation_fast_path: bool = True,
    ) -> None:
        self._dtype = None if dtype is None else np.dtype(dtype)
        self._fast_path = bool(permutation_fast_path)

    @property
    def dtype(self) -> "np.dtype | None":
        """Forced amplitude dtype, or None to follow the initial state."""
        return self._dtype

    @property
    def permutation_fast_path(self) -> bool:
        """True when permutation gates dispatch to the table-gather path."""
        return self._fast_path

    def run(
        self,
        circuit: Circuit,
        initial_state: StateVector | None = None,
        wires: Sequence[Qudit] | None = None,
    ) -> StateVector:
        """Final state after the whole circuit.

        If ``initial_state`` is omitted, starts from |0...0> over
        ``wires`` (default: the circuit's wires) at the simulator's
        dtype (default ``complex128``).  A given ``initial_state`` is
        copied once and never mutated; its dtype is preserved unless
        the simulator was constructed with an explicit ``dtype``.
        """
        if initial_state is None:
            wires = list(wires) if wires else circuit.all_qudits()
            state = StateVector.zero(wires, self._register_dtype())
        elif self._dtype is not None and initial_state.dtype != self._dtype:
            state = initial_state.astype(self._dtype)
        else:
            state = initial_state.copy()
        return self._evolve(circuit, state)

    def run_basis(
        self,
        circuit: Circuit,
        wires: Sequence[Qudit],
        values: Sequence[int],
    ) -> StateVector:
        """Run from the computational basis state |values>, evolving the
        one register this builds."""
        return self._evolve(
            circuit,
            StateVector.computational_basis(
                list(wires), values, self._register_dtype()
            ),
        )

    def _register_dtype(self) -> np.dtype:
        return self._dtype if self._dtype is not None else np.dtype(complex)

    def _evolve(self, circuit: Circuit, state: StateVector) -> StateVector:
        """``state``, a register this run owns, after ``circuit``."""
        covered = set(state.wires)
        missing = [w for w in circuit.all_qudits() if w not in covered]
        if missing:
            raise ValueError(
                f"initial state does not cover circuit wires {missing}"
            )
        if self._fast_path:
            state._evolve(circuit_steps(circuit, state.wires, state.dtype))
        else:
            for moment in circuit:
                for op in moment:
                    state.apply_operation_dense(op)
        return state

    def sample_counts(
        self,
        circuit: Circuit,
        shots: int,
        *,
        initial_state: StateVector | None = None,
        wires: Sequence[Qudit] | None = None,
        measure_wires: Sequence[Qudit] | None = None,
        seed: "int | np.random.Generator | None" = None,
        batch_size: int | None = None,
    ) -> MeasurementResult:
        """Run once, then draw ``shots`` outcome counts from the final state.

        One circuit execution serves any number of shots: counts are
        drawn directly from the final-state probabilities in vectorized
        chunks (:func:`repro.sim.measurement.sample_counts`) — no
        per-shot state evolution, no ``(shots, wires)`` sample array.
        ``measure_wires`` restricts (and orders) the reported register;
        ``seed`` takes an int or a ``numpy`` Generator and makes the
        counts deterministic, independent of ``batch_size`` chunking.
        """
        state = self.run(circuit, initial_state, wires=wires)
        return sample_counts(
            state,
            shots,
            rng=seed,
            wires=measure_wires,
            batch_size=batch_size,
        )
