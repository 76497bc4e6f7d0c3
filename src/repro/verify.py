"""One equivalence oracle: does a circuit act exactly as its reference?

Every gate states its action on classical basis inputs (the paper's
Sec. 6 rule), so equivalence is checked input by input over a basis:

* the **reference** is a :class:`Circuit` or a classical map (``(B,
  width)`` input rows over ``wires`` to output rows, e.g. the map a
  Toffoli spec defines);
* wires **pair by index**, and the reference's wires define the
  compared space: a candidate wire may be wider than its reference wire
  (a qubit lifted to a qutrit), and only the reference's levels are
  inputs.  ``levels`` narrows the inputs of selected wires further
  (clean ancilla at 0, binary data wires);
* the comparison is **exact**: for every input, every output amplitude
  of the candidate matches the reference within ``atol``, over the
  candidate's whole space.  A global phase fails, and so does
  population left outside the subspace.

The oracle that runs is decided by the pair, never by the caller:
``"classical"`` gathers permutation tables when both sides are classical;
``"statevector"`` advances the basis inputs densely, against one-hot
targets when only the reference is classical and against the
reference's own advance otherwise.  Dense work (inputs x the
candidate's joint dimension) is capped at :data:`DENSE_WORK_CAP`; beyond
it the check is refused.  docs/SIMULATORS.md states these semantics for
users ("The equivalence oracle").
"""

from __future__ import annotations

from math import prod
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .circuits.circuit import Circuit
from .exceptions import VerificationError
from .qudits import Qudit
from .sim.classical import ClassicalSimulator
from .sim.fidelity import resolve_batch_size
from .sim.kernels import apply_block, gate_kernel

#: Ceiling on dense work: basis inputs x the candidate's joint
#: dimension.  6561^2 reaches every same-width pair up to 3^8 states,
#: the lifted adder at n=3 (2^8 inputs x 3^8) and the decomposed He
#: tree at N=8 (2^9 x 2^16).
DENSE_WORK_CAP = 6561**2

#: A classical reference: ``(B, width)`` input rows -> output rows.
Reference = Union[Circuit, Callable[[np.ndarray], np.ndarray]]

__all__ = ["DENSE_WORK_CAP", "Verdict", "assert_equivalent", "oracle_for"]


class Verdict(NamedTuple):
    """A passed check: the oracle that ran and the inputs it covered."""

    oracle: str
    inputs: int


def _by_index(circuit: Circuit, label: str) -> dict[int, Qudit]:
    table: dict[int, Qudit] = {}
    for wire in circuit.all_qudits():
        if table.setdefault(wire.index, wire) != wire:
            raise VerificationError(
                f"{label} uses index {wire.index} at two dimensions; "
                "its wires cannot pair"
            )
    return table


def _pair(
    circuit: Circuit,
    reference: Reference,
    wires: "Sequence[Qudit] | None",
) -> tuple[list[Qudit], list[Qudit]]:
    """The compared wires, and the candidate's wire at each position.

    A wire only one side touches is idle on the other side.
    """
    own = _by_index(circuit, "circuit")
    if wires is None:
        if not isinstance(reference, Circuit):
            raise TypeError("a classical-map reference needs wires=")
        theirs = _by_index(reference, "reference")
        space = [
            theirs.get(index, own.get(index))
            for index in sorted(set(own) | set(theirs))
        ]
    else:
        space = list(wires)
        listed = {wire.index for wire in space}
        stray = {index for index in own if index not in listed}
        if isinstance(reference, Circuit):
            stray.update(
                wire.index
                for wire in reference.all_qudits()
                if wire not in space
            )
        if stray:
            raise VerificationError(
                f"wire indices {sorted(stray)} lie outside the compared "
                "wires"
            )
    candidate = [own.get(wire.index, wire) for wire in space]
    for mine, theirs in zip(candidate, space):
        if mine.dimension < theirs.dimension:
            raise VerificationError(
                f"circuit wire {mine} is narrower than reference wire "
                f"{theirs}"
            )
    return space, candidate


def _num_inputs(
    space: Sequence[Qudit], levels: "Mapping[Qudit, Sequence[int]] | None"
) -> int:
    levels = levels or {}
    return prod(len(levels.get(w, range(w.dimension))) for w in space)


def _is_classical(side: Reference) -> bool:
    return not isinstance(
        side, Circuit
    ) or ClassicalSimulator().is_classical_circuit(side)


def _select(
    circuit: Circuit,
    reference: Reference,
    candidate: Sequence[Qudit],
    num_inputs: int,
) -> "str | None":
    if _is_classical(circuit) and _is_classical(reference):
        return "classical"
    if num_inputs * prod(w.dimension for w in candidate) <= DENSE_WORK_CAP:
        return "statevector"
    return None


def oracle_for(
    circuit: Circuit,
    reference: Reference,
    *,
    wires: "Sequence[Qudit] | None" = None,
    levels: "Mapping[Qudit, Sequence[int]] | None" = None,
) -> "str | None":
    """The oracle :func:`assert_equivalent` would run on this pair, or
    None when it would refuse (non-classical and over the dense cap)."""
    space, candidate = _pair(circuit, reference, wires)
    return _select(circuit, reference, candidate, _num_inputs(space, levels))


def _classical_outputs(
    side: Reference, wires: Sequence[Qudit], inputs: np.ndarray
) -> np.ndarray:
    if isinstance(side, Circuit):
        return ClassicalSimulator().run_array(side, wires, inputs)
    return side(inputs)


def _basis_batch(wires: Sequence[Qudit], rows: np.ndarray) -> np.ndarray:
    """One-hot ``(B, d_0, ..., d_{n-1})`` states, one per row."""
    batch = np.zeros(
        (len(rows),) + tuple(w.dimension for w in wires), dtype=complex
    )
    batch[(np.arange(len(rows)),) + tuple(rows.T)] = 1.0
    return batch


def _advance(
    circuit: Circuit, wires: Sequence[Qudit], batch: np.ndarray
) -> np.ndarray:
    axis = {w: 1 + k for k, w in enumerate(wires)}
    for op in circuit.all_operations():
        batch = apply_block(
            batch, gate_kernel(op).block, [axis[w] for w in op.qudits]
        )
    return batch


def _table_check(
    circuit: Circuit,
    reference: Reference,
    space: Sequence[Qudit],
    candidate: Sequence[Qudit],
    inputs: np.ndarray,
    context: str,
) -> None:
    got = _classical_outputs(circuit, candidate, inputs)
    want = _classical_outputs(reference, space, inputs)
    if not np.array_equal(got, want):
        row = int(np.argmax(np.any(got != want, axis=1)))
        raise VerificationError(
            f"{context}: input {inputs[row].tolist()} -> "
            f"{got[row].tolist()}, expected {want[row].tolist()}"
        )


def _dense_check(
    circuit: Circuit,
    reference: Reference,
    space: Sequence[Qudit],
    candidate: Sequence[Qudit],
    inputs: np.ndarray,
    atol: float,
    context: str,
) -> None:
    targets = (
        _classical_outputs(reference, space, inputs)
        if _is_classical(reference)
        else None
    )
    subspace = (slice(None),) + tuple(slice(0, w.dimension) for w in space)
    chunk = resolve_batch_size(candidate, len(inputs))
    for start in range(0, len(inputs), chunk):
        rows = inputs[start : start + chunk]
        got = _advance(circuit, candidate, _basis_batch(candidate, rows))
        if targets is None:
            want = np.zeros_like(got)
            want[subspace] = _advance(
                reference, space, _basis_batch(space, rows)
            )
        else:
            want = _basis_batch(candidate, targets[start : start + chunk])
        if not np.allclose(got, want, atol=atol):
            close = np.isclose(got, want, atol=atol)
            row = int(np.argmin(close.reshape(len(rows), -1).all(axis=1)))
            error = float(np.abs(got[row] - want[row]).max())
            raise VerificationError(
                f"{context}: input {rows[row].tolist()} -> amplitudes "
                f"off the reference by up to {error:.3g} "
                "(statevector oracle)"
            )
        # Free this chunk before the next advance: holding it slows
        # the next chunk's contractions by about 15%.
        del got, want


def assert_equivalent(
    circuit: Circuit,
    reference: Reference,
    *,
    wires: "Sequence[Qudit] | None" = None,
    levels: "Mapping[Qudit, Sequence[int]] | None" = None,
    atol: float = 1e-8,
    context: str = "circuit",
) -> Verdict:
    """Raise :class:`VerificationError` unless ``circuit`` acts exactly
    as ``reference`` on every basis input of the compared space.

    ``wires`` lists the compared space (default: every wire either
    circuit touches, at the reference's dimension); a classical-map
    reference needs it.  ``levels`` maps a wire to its allowed input
    values.  The error names the first input that differs, or why no
    oracle can run.  Returns the :class:`Verdict`.
    """
    space, candidate = _pair(circuit, reference, wires)
    num_inputs = _num_inputs(space, levels)
    oracle = _select(circuit, reference, candidate, num_inputs)
    if oracle is None:
        raise VerificationError(
            f"cannot verify {context}: the pair is not classical, and "
            f"{num_inputs} inputs x "
            f"{prod(w.dimension for w in candidate)} states exceed the "
            f"dense cap of {DENSE_WORK_CAP} (6561^2)"
        )
    inputs = ClassicalSimulator.input_space(space, levels)
    if oracle == "classical":
        _table_check(circuit, reference, space, candidate, inputs, context)
    else:
        _dense_check(
            circuit, reference, space, candidate, inputs, atol, context
        )
    return Verdict(oracle, len(inputs))
