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

A run from a basis input (``run_basis``, or ``run`` without an initial
state) on a register of at least :data:`_SUPPORT_MIN_AMPLITUDES`
amplitudes starts on the input's *support* instead, the basis-input
walk of :meth:`repro.sim.classical.ClassicalSimulator.run_support`.
It moves into one register before the next moment once the support
holds more than :data:`_SUPPORT_MAX_FRACTION` of it, and planning goes
on from there; a run that ends on the support scatters it into one
register, or (:meth:`StateVectorSimulator.evolve_basis`) hands the
support itself to the shot sampler.  The lowered ``qutrit_tree`` at
N=10 thus runs on at most 54 entries of its 3^11 amplitudes.

Two knobs tune bulk sweeps:

* ``dtype=np.complex64`` halves the memory traffic of wide sweeps; the
  permutation fast path is rounding-free in both precisions, and the
  multiplies and the dense fallback use per-precision cached kernels
  (parity bounds in docs/SIMULATORS.md, enforced by the property
  suite);
* ``permutation_fast_path=False`` forces every gate through the dense
  contraction (no gathers, no multiplies, no control blocks, no
  support) — the pre-v2 engine, preserved as the parity oracle for
  tests and ``BENCH_state.json``.

Terminal sampling ships here too: :meth:`StateVectorSimulator
.sample_counts` runs the circuit once and draws any number of shots
directly from the final-state probabilities (no per-shot trajectory
work), from the support when the run ended there — see
:func:`repro.sim.measurement.sample_counts`.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..qudits import Qudit
from .classical import ClassicalSimulator, Support
from .kernels import GatePlan
from .measurement import MeasurementResult, sample_counts
from .state import StateVector, check_basis_values

#: A basis-input run starts on its support once the register holds at
#: least this many amplitudes.  In the sweep of docs/SIMULATORS.md the
#: support won on every circuit from 2^14 amplitudes up, and lost where
#: a register of at most 2,048 filled with support.
_SUPPORT_MIN_AMPLITUDES = 2**14

#: A run on the support hands its state to the register's
#: :class:`~repro.sim.kernels.GatePlan` before the next moment once the
#: support holds more than this fraction of the register (the fastest
#: hand-over point of the same sweep).
_SUPPORT_MAX_FRACTION = 1 / 64


def circuit_steps(
    circuit: Circuit,
    wires: Sequence[Qudit],
    dtype: "np.dtype | type" = np.complex128,
    start: int = 0,
) -> Iterator[tuple]:
    """``circuit``'s :class:`~repro.sim.kernels.GatePlan` steps on a
    register over ``wires`` from moment ``start`` on, planned moment by
    moment as they are consumed; the open segment closes after the last
    moment."""
    axis = {wire: k for k, wire in enumerate(wires)}
    plan = GatePlan([wire.dimension for wire in wires], dtype=dtype)
    for moment in circuit.moments[start:]:
        yield from plan.moment(
            [(op, [axis[w] for w in op.qudits]) for op in moment]
        )
    yield from plan.close()


def _check_covers(circuit: Circuit, wires: Sequence[Qudit]) -> None:
    covered = set(wires)
    missing = [w for w in circuit.all_qudits() if w not in covered]
    if missing:
        raise ValueError(
            f"initial state does not cover circuit wires {missing}"
        )


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
        dtype (default ``complex128``), as :meth:`run_basis` does.  A
        given ``initial_state`` runs on its register and is
        copied once and never mutated; its dtype is preserved unless
        the simulator was constructed with an explicit ``dtype``.
        """
        if initial_state is None:
            wires = list(wires) if wires else circuit.all_qudits()
            return self.run_basis(circuit, wires, [0] * len(wires))
        if self._dtype is not None and initial_state.dtype != self._dtype:
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
        """Run from the computational basis state |values> (see
        :meth:`evolve_basis`); the final state is one register."""
        final = self.evolve_basis(circuit, wires, values)
        if isinstance(final, Support):
            return final.to_state(self._register_dtype())
        return final

    def evolve_basis(
        self,
        circuit: Circuit,
        wires: Sequence[Qudit],
        values: Sequence[int],
    ) -> "StateVector | Support":
        """The final state of |values>: its support when the run ended
        there, else its register.

        On a register of at least :data:`_SUPPORT_MIN_AMPLITUDES`
        amplitudes the run starts on the support
        (:meth:`repro.sim.classical.ClassicalSimulator.run_support`), and
        it moves into one register, planned from the next moment on,
        once the support holds more than :data:`_SUPPORT_MAX_FRACTION` of
        it.  Smaller registers, and the dense oracle
        (``permutation_fast_path=False``), run on the register from the
        start.
        """
        wires = list(wires)
        check_basis_values(wires, values)
        size = math.prod(w.dimension for w in wires)
        # The support keys its entries by int64 flat register index.
        if not self._fast_path or not (
            _SUPPORT_MIN_AMPLITUDES <= size <= np.iinfo(np.int64).max
        ):
            return self._evolve(
                circuit,
                StateVector.computational_basis(
                    wires, values, self._register_dtype()
                ),
            )
        _check_covers(circuit, wires)
        support, walked = ClassicalSimulator().run_support(
            circuit, wires, values, _SUPPORT_MAX_FRACTION * size
        )
        if walked == circuit.depth:
            return support
        state = support.to_state(self._register_dtype())
        state._evolve(circuit_steps(circuit, wires, state.dtype, walked))
        return state

    def _register_dtype(self) -> np.dtype:
        return self._dtype if self._dtype is not None else np.dtype(complex)

    def _evolve(self, circuit: Circuit, state: StateVector) -> StateVector:
        """``state``, a register this run owns, after ``circuit``."""
        _check_covers(circuit, state.wires)
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
        if initial_state is None:
            wires = list(wires) if wires else circuit.all_qudits()
            state = self.evolve_basis(circuit, wires, [0] * len(wires))
        else:
            state = self.run(circuit, initial_state)
        return sample_counts(
            state,
            shots,
            rng=seed,
            wires=measure_wires,
            batch_size=batch_size,
        )
