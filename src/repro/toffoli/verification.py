"""Verification of Generalized Toffoli constructions (Sec. 4.2 / Sec. 6).

A construction promises a classical map: binary data wires, clean
ancilla starting (and ending) in |0>, borrowed wires in any pattern and
restored, and the target flipped exactly when every control is active —
each output reached with amplitude exactly 1, so no relative phase.

* :func:`verify_construction` hands those input levels and that
  expected map to :func:`repro.verify.assert_equivalent`, which gathers
  permutation tables for permutation circuits (the undecomposed tree,
  ladders, chains: the paper's width-14 check, see
  ``BENCH_verify.json``) and advances the basis densely otherwise (the
  decomposed circuits' fractional-power gates).
* :func:`verify_classical_looped` — the per-input reference walking
  ``Circuit.classical_map``.  Kept as the parity oracle and the looped
  side of the verification benchmark; its decisions and first-mismatch
  reports match the batched path.

Both raise :class:`~repro.exceptions.VerificationError` naming the first
offending input.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

import numpy as np

from ..exceptions import VerificationError
from ..verify import Verdict, assert_equivalent
from .spec import ConstructionResult


def _expected_output(result: ConstructionResult, values: list[int]) -> list[int]:
    spec = result.spec
    n = spec.num_controls
    expected = list(values)
    if spec.is_active(tuple(values[:n])):
        expected[n] ^= 1
    return expected


def _input_space(
    result: ConstructionResult, dirty_patterns: bool
) -> Iterable[list[int]]:
    """Per-input generator form of the input space (looped reference)."""
    spec = result.spec
    n = spec.num_controls
    num_clean = len(result.clean_ancilla)
    num_borrowed = len(result.borrowed_ancilla)
    borrow_space = (
        product([0, 1], repeat=num_borrowed)
        if dirty_patterns
        else [(0,) * num_borrowed]
    )
    borrow_space = list(borrow_space)
    for data in product([0, 1], repeat=n + 1):
        for borrowed in borrow_space:
            yield list(data) + [0] * num_clean + list(borrowed)


def _input_levels(result: ConstructionResult, dirty_patterns: bool) -> dict:
    """Binary data wires, |0> clean ancilla, borrowed wires swept (or
    pinned to 0).  Over ``result.all_wires`` these levels enumerate in
    :func:`_input_space` order (data bits outer, borrowed patterns
    inner), so failure reports and input counts agree between the
    batched and looped paths."""
    levels: dict = {w: (0, 1) for w in result.controls + [result.target]}
    levels.update({w: (0,) for w in result.clean_ancilla})
    levels.update(
        {
            w: (0, 1) if dirty_patterns else (0,)
            for w in result.borrowed_ancilla
        }
    )
    return levels


def _expected_array(
    result: ConstructionResult, inputs: np.ndarray
) -> np.ndarray:
    """Vectorized ideal outputs: controls (and ancilla) unchanged, the
    target flipped exactly on the rows whose controls are all active."""
    spec = result.spec
    n = spec.num_controls
    expected = inputs.copy()
    active = np.all(
        inputs[:, :n] == np.asarray(spec.control_values, dtype=np.int64),
        axis=1,
    )
    expected[active, n] ^= 1
    return expected


def verify_construction(
    result: ConstructionResult, dirty_patterns: bool = True
) -> Verdict:
    """Exhaustively verify a construction against its spec.

    Checks every binary data input (and, with ``dirty_patterns``, every
    borrowed-wire pattern) with the oracle the circuit allows.  Returns
    the :class:`~repro.verify.Verdict` (oracle and input count); raises
    :class:`~repro.exceptions.VerificationError` on any mismatch, or
    when a non-permutation circuit is too wide for the dense check.
    """
    return assert_equivalent(
        result.circuit,
        lambda inputs: _expected_array(result, inputs),
        wires=result.all_wires,
        levels=_input_levels(result, dirty_patterns),
        context=result.name,
    )


def verify_classical_looped(
    result: ConstructionResult, dirty_patterns: bool = True
) -> int:
    """Per-input reference implementation of :func:`verify_construction`
    for permutation circuits; returns the input count.

    Walks ``Circuit.classical_map`` once per input — the pre-batching
    engine, preserved verbatim so the benchmark has a looped side to
    time and the parity tests have an independent oracle.
    """
    circuit = result.circuit
    wires = result.all_wires
    checked = 0
    for values in _input_space(result, dirty_patterns):
        assignment = circuit.classical_map(dict(zip(wires, values)))
        out = [assignment[w] for w in wires]
        if out != _expected_output(result, values):
            raise VerificationError(
                f"{result.name}: input {values} -> {out}, "
                f"expected {_expected_output(result, values)}"
            )
        checked += 1
    return checked
