"""Noise-free state-vector simulation.

The v2 hot path exploits structure: permutation gates (the bulk of the
Toffoli catalog) move amplitudes by fancy indexing through cached
full-register gather maps (:func:`repro.sim.kernels.permutation_gather`),
and the run loop composes *consecutive* permutation gates into one
cached segment gather (:func:`repro.sim.kernels
.segment_permutation_gather`) — a permutation-only circuit costs a
single pass over the amplitudes per run, however deep it is.  A
non-classical :class:`~repro.gates.controlled.ControlledGate` updates
only its control block (:func:`repro.sim.kernels.apply_gate_block`);
only the remaining gates pay a dense contraction through the
gate-kernel cache.  Either way a gate that occurs many times in a
circuit — or across the thousands of basis inputs exhaustive
verification runs — lowers exactly once per canonical spec.

Two knobs tune bulk sweeps:

* ``dtype=np.complex64`` halves the memory traffic of wide sweeps; the
  permutation fast path is rounding-free in both precisions and the
  dense fallback uses per-precision cached kernels (parity bounds in
  docs/SIMULATORS.md, enforced by the property suite);
* ``permutation_fast_path=False`` forces every gate through the dense
  contraction (no gathers, no control blocks) — the pre-v2 engine,
  preserved as the parity oracle for tests and ``BENCH_state.json``.

Terminal sampling ships here too: :meth:`StateVectorSimulator
.sample_counts` runs the circuit once and draws any number of shots
directly from the final-state probabilities (no per-shot trajectory
work) — see :func:`repro.sim.measurement.sample_counts`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..qudits import Qudit
from .kernels import permutation_kernel
from .measurement import MeasurementResult, sample_counts
from .state import StateVector


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
        never mutated; its dtype is preserved unless the simulator was
        constructed with an explicit ``dtype``.
        """
        if initial_state is None:
            wires = list(wires) if wires else circuit.all_qudits()
            state = StateVector.zero(
                wires, self._dtype if self._dtype is not None else complex
            )
        else:
            if (
                self._dtype is not None
                and initial_state.dtype != self._dtype
            ):
                state = initial_state.astype(self._dtype)
            else:
                state = initial_state.copy()
            covered = set(state.wires)
            missing = [w for w in circuit.all_qudits() if w not in covered]
            if missing:
                raise ValueError(
                    f"initial state does not cover circuit wires {missing}"
                )
        if not self._fast_path:
            for moment in circuit:
                for op in moment:
                    state.apply_operation_dense(op)
            return state
        # Batch consecutive permutation gates into segments: each
        # segment composes to one cached gather, so a permutation-only
        # circuit costs a single pass over the amplitudes per run.
        segment: list = []
        for moment in circuit:
            for op in moment:
                if permutation_kernel(op).is_permutation:
                    segment.append(op)
                    continue
                state.apply_permutation_ops(segment)
                segment.clear()
                state.apply_gate_block(op)
        state.apply_permutation_ops(segment)
        return state

    def run_basis(
        self,
        circuit: Circuit,
        wires: Sequence[Qudit],
        values: Sequence[int],
    ) -> StateVector:
        """Run from the computational basis state |values>."""
        return self.run(
            circuit, StateVector.computational_basis(list(wires), values)
        )

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
