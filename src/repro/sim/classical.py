"""Classical basis-state simulation of permutation circuits.

The paper extended Cirq so gates "specify their action on classical
non-superposition input states without considering full state vectors",
cutting verification from exponential to linear cost and enabling
exhaustive checks of all classical inputs up to width 14 (Sec. 6).  The
per-gate dict walk (``Circuit.classical_map``, kept as the looped
reference implementation for parity tests and ``python -m repro bench``)
has the right *asymptotics* but pays Python-interpreter cost per input
per gate: the width-14 workload is 2^14 inputs x thousands of dict
operations.

:class:`ClassicalSimulator` removes the per-input Python cost.  All
basis inputs live in one ``(B, width)`` integer array and the whole
batch advances per operation with numpy fancy indexing:

1. each classical gate lowers **once** (keyed on its canonical spec) to
   a flat ``int64`` lookup table over the mixed-radix index of its wires
   (:func:`repro.sim.kernels.permutation_kernel`);
2. per operation, the touched columns are encoded into joint indices
   (``values @ weights``), gathered through the table, and decoded back
   — three vectorized passes over the batch, no per-input work.

Cost drops from ``O(B x ops x python)`` to ``O(ops)`` vectorized passes,
which is what makes the paper's exhaustive width-14 check (N=13
controls, all 2^14 inputs) complete in seconds — see ``BENCH_verify.json``.

Rows advance in chunks of at most ``_AUTO_BATCH_ROWS`` (one pass for
every workload up to that many inputs).  Chunking changes memory use
only, never results.

Lowerings are memoised per circuit (LRU on the content-addressed
circuit identity), and single-input calls (:meth:`ClassicalSimulator.run`,
:meth:`~ClassicalSimulator.run_values`, the ``classical`` backend) take a
scalar walk over the cached tables instead of 1-row fancy indexing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..exceptions import NotClassicalError, SchedulingError
from ..qudits import Qudit
from .kernels import (
    PermutationKernel,
    mixed_radix_weights,
    permutation_kernel,
)

#: Auto-batching cap: rows advanced per vectorized pass.  A row is
#: ``width`` int64 values, so 1 << 16 rows over width 14 is ~7 MB of
#: working set — large enough to amortise per-op numpy overhead, small
#: enough to stay cache-friendly for the full-radix permutation vector
#: of wide qutrit circuits.
_AUTO_BATCH_ROWS = 1 << 16


@lru_cache(maxsize=128)
def _lowered_operations(
    circuit: Circuit, wires: tuple[Qudit, ...]
) -> tuple[tuple[np.ndarray, PermutationKernel], ...]:
    """The cached ``(columns, kernel)`` lowering of one settled circuit."""
    column = {wire: k for k, wire in enumerate(wires)}
    lowered = []
    for op in circuit.all_operations():
        for wire in op.qudits:
            if wire not in column:
                raise SchedulingError(
                    f"no input value provided for wire {wire}"
                )
        kernel = permutation_kernel(op)
        if not kernel.is_permutation:
            raise NotClassicalError(
                f"gate {op.gate.name} is not a basis permutation"
            )
        cols = np.array([column[w] for w in op.qudits], dtype=np.intp)
        cols.setflags(write=False)
        lowered.append((cols, kernel))
    return tuple(lowered)


class ClassicalSimulator:
    """Propagates basis states through permutation circuits, one
    assignment (``run``, ``run_values``) or whole batches at once
    (``run_array``, ``truth_table``, ``permutation_vector``)."""

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------

    @staticmethod
    def _lower(
        circuit: Circuit, wires: Sequence[Qudit]
    ) -> tuple[tuple[np.ndarray, PermutationKernel], ...]:
        """Lower ``circuit`` to ``(column indices, table kernel)`` pairs.

        Raises :class:`SchedulingError` for operations on wires outside
        ``wires`` and :class:`NotClassicalError` for non-permutation
        gates — the same failures ``Circuit.classical_map`` reports,
        decided here once per circuit instead of once per input.

        Memoised on the circuit's content-addressed identity, so
        repeated runs of one circuit — truth tables, benchmark repeats,
        backend sweeps — skip the op walk entirely.  Mutating a circuit
        after a run changes its hash, which simply misses the cache.
        """
        return _lowered_operations(circuit, tuple(wires))

    def is_classical_circuit(self, circuit: Circuit) -> bool:
        """True iff every gate lowers to a permutation table.

        Decided from the whole-domain lowering — a gate that merely acts
        classically on some probe input (e.g. a controlled non-classical
        gate with inactive controls) does not pass.
        """
        return all(
            permutation_kernel(op).is_permutation
            for op in circuit.all_operations()
        )

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------

    def run_array(
        self,
        circuit: Circuit,
        wires: Sequence[Qudit],
        inputs: np.ndarray,
    ) -> np.ndarray:
        """Output values for every input row (shape ``(B, width)``).

        ``inputs[b, k]`` is the starting value of ``wires[k]`` in batch
        member ``b``; the result has the same shape and dtype ``int64``.
        Rows are advanced in chunks of at most ``_AUTO_BATCH_ROWS``;
        there is no RNG, so results are bit-identical under any
        chunking.
        """
        wires = list(wires)
        inputs = np.asarray(inputs, dtype=np.int64)
        if inputs.ndim != 2 or inputs.shape[1] != len(wires):
            raise ValueError(
                f"inputs must have shape (B, {len(wires)}), "
                f"got {inputs.shape}"
            )
        dims = np.array([w.dimension for w in wires], dtype=np.int64)
        if inputs.size and (
            np.any(inputs < 0) or np.any(inputs >= dims)
        ):
            bad = int(
                np.argmax(np.any((inputs < 0) | (inputs >= dims), axis=1))
            )
            raise ValueError(
                f"input row {bad} = {inputs[bad].tolist()} out of range "
                f"for wire dimensions {dims.tolist()}"
            )
        lowered = self._lower(circuit, wires)
        values = inputs.copy()
        chunk = max(1, min(len(values), _AUTO_BATCH_ROWS))
        for start in range(0, len(values), chunk):
            block = values[start : start + chunk]
            for cols, kernel in lowered:
                indices = block[:, cols] @ kernel.weights
                images = kernel.table[indices]
                for k in range(len(cols)):
                    block[:, cols[k]] = (
                        images // kernel.weights[k]
                    ) % kernel.dims[k]
        return values

    def run(
        self, circuit: Circuit, assignment: Mapping[Qudit, int]
    ) -> dict[Qudit, int]:
        """Output wire values for the given input values.

        Raises :class:`NotClassicalError` if any gate is not a basis
        permutation and :class:`SchedulingError` if the circuit touches a
        wire missing from ``assignment`` — the same contract as the
        looped ``Circuit.classical_map``.
        """
        wires = list(assignment)
        output = self.run_values(
            circuit, wires, [assignment[w] for w in wires]
        )
        return dict(zip(wires, output))

    def run_values(
        self,
        circuit: Circuit,
        wires: Sequence[Qudit],
        values: Sequence[int],
    ) -> tuple[int, ...]:
        """Single-input run against the cached lowering.

        A batch of one gains nothing from fancy indexing, so this walks
        the lowered tables with scalar arithmetic — the cached lowering
        (no per-call op walk, no permutation re-derivation) is what
        makes it faster than the per-gate dict walk it replaced.
        """
        wires = list(wires)
        state = [int(v) for v in values]
        if len(state) != len(wires):
            raise ValueError(
                f"inputs must have shape (B, {len(wires)}), "
                f"got (1, {len(state)})"
            )
        for value, wire in zip(state, wires):
            if not 0 <= value < wire.dimension:
                raise ValueError(
                    f"input row 0 = {state} out of range for wire "
                    f"dimensions {[w.dimension for w in wires]}"
                )
        for cols, kernel in self._lower(circuit, wires):
            index = 0
            for k in range(len(cols)):
                index = index * kernel.dims[k] + state[cols[k]]
            image = int(kernel.table[index])
            for k in range(len(cols) - 1, -1, -1):
                state[cols[k]] = image % kernel.dims[k]
                image //= kernel.dims[k]
        return tuple(state)

    # ------------------------------------------------------------------
    # Exhaustive surfaces
    # ------------------------------------------------------------------

    @staticmethod
    def input_space(
        wires: Sequence[Qudit],
        input_levels: Mapping[Qudit, Iterable[int]] | None = None,
    ) -> np.ndarray:
        """Every input combination as one ``(B, width)`` array.

        Rows enumerate in ``itertools.product`` order (first wire most
        significant).
        ``input_levels`` restricts the starting values of selected wires
        (the paper's binary-in convention on qutrit wires).
        """
        choices = []
        for wire in wires:
            if input_levels is not None and wire in input_levels:
                choices.append(
                    np.asarray(list(input_levels[wire]), dtype=np.int64)
                )
            else:
                choices.append(np.arange(wire.dimension, dtype=np.int64))
        if not choices:
            return np.zeros((1, 0), dtype=np.int64)
        grids = np.meshgrid(*choices, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    def truth_table(
        self,
        circuit: Circuit,
        wires: Sequence[Qudit],
        input_levels: Mapping[Qudit, Iterable[int]] | None = None,
    ) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Exhaustive input -> output map over selected input levels.

        ``input_levels`` restricts which values each wire may start in
        (e.g. qubit inputs {0, 1} on qutrit wires, per the paper's
        binary-in / binary-out convention); the default is every level.
        Keys enumerate in :meth:`input_space` order; one batched run
        instead of ``B`` circuit walks.
        """
        wires = list(wires)
        inputs = self.input_space(wires, input_levels)
        outputs = self.run_array(circuit, wires, inputs)
        return {
            tuple(int(v) for v in row_in): tuple(int(v) for v in row_out)
            for row_in, row_out in zip(inputs, outputs)
        }

    def permutation_vector(
        self,
        circuit: Circuit,
        wires: Sequence[Qudit] | None = None,
    ) -> np.ndarray:
        """The circuit's full classical action as one index array.

        ``vector[i] = j`` means joint basis state ``i`` (mixed-radix over
        ``wires``, first wire most significant) maps to ``j`` — the
        circuit analogue of a gate's permutation table.  Round-trips
        against :meth:`truth_table` over full levels, and composes:
        ``v_ab = v_b[v_a]`` for concatenated circuits.
        """
        wires = list(wires) if wires is not None else circuit.all_qudits()
        if not wires:
            return np.zeros(1, dtype=np.int64)
        # Full-level input_space rows enumerate in product order, which
        # is exactly the mixed-radix decode of 0, 1, 2, ...: row i of
        # the input array IS basis state i.
        inputs = self.input_space(wires)
        outputs = self.run_array(circuit, wires, inputs)
        return outputs @ mixed_radix_weights(
            [w.dimension for w in wires]
        )
