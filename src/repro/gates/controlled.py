"""Controlled gates with arbitrary control values on arbitrary dimensions.

The paper's constructions condition on |1> (ordinary controls), on |2>
(reading out the temporarily elevated qutrit state), and on |0> (the
incrementer's finalize gates).  ``ControlledGate`` models all of these: each
control wire has a dimension and an activation value; the sub-gate fires iff
every control wire holds exactly its activation value.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, NotClassicalError
from .base import Gate, index_to_values, values_to_index
from .intern import exact, intern_gate
from .spec import GATE_REGISTRY, GateSpec


class ControlledGate(Gate):
    """``sub_gate`` applied iff every control wire matches its value.

    Wire order is controls first (in the given order), then the sub-gate's
    wires.

    Parameters
    ----------
    sub_gate:
        The gate applied when all controls are active.
    control_dims:
        Dimension of each control wire.
    control_values:
        Activation value for each control wire; defaults to all 1
        (the conventional control).
    """

    def __init__(
        self,
        sub_gate: Gate,
        control_dims: Sequence[int],
        control_values: Sequence[int] | None = None,
    ) -> None:
        control_dims = tuple(control_dims)
        if control_values is None:
            control_values = (1,) * len(control_dims)
        control_values = tuple(control_values)
        if len(control_values) != len(control_dims):
            raise DimensionMismatchError(
                "control_values and control_dims must have equal length"
            )
        for value, dim in zip(control_values, control_dims):
            if not 0 <= value < dim:
                raise ValueError(
                    f"control value {value} out of range for dimension {dim}"
                )
        if not control_dims:
            raise ValueError("need at least one control wire")
        self._sub_gate = sub_gate
        self._control_dims = control_dims
        self._control_values = control_values

    # -- data access -----------------------------------------------------

    @property
    def sub_gate(self) -> Gate:
        """The gate applied when all controls are active."""
        return self._sub_gate

    @property
    def control_dims(self) -> tuple[int, ...]:
        """Dimensions of the control wires."""
        return self._control_dims

    @property
    def control_values(self) -> tuple[int, ...]:
        """Activation values of the control wires."""
        return self._control_values

    @property
    def num_controls(self) -> int:
        """Number of control wires."""
        return len(self._control_dims)

    # -- Gate interface ---------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self._control_dims + self._sub_gate.dims

    @property
    def name(self) -> str:
        values = ",".join(str(v) for v in self._control_values)
        return f"C[{values}]{self._sub_gate.name}"

    def unitary(self) -> np.ndarray:
        sub_dim = self._sub_gate.total_dim
        sub_u = self._sub_gate.unitary()
        ctrl_dim = 1
        for d in self._control_dims:
            ctrl_dim *= d
        total = ctrl_dim * sub_dim
        matrix = np.eye(total, dtype=complex)
        active = values_to_index(self._control_values, self._control_dims)
        lo = active * sub_dim
        hi = lo + sub_dim
        matrix[lo:hi, lo:hi] = sub_u
        return matrix

    def _structural_inverse(self) -> "ControlledGate":
        return controlled(
            self._sub_gate.inverse(), self._control_values, self._control_dims
        )

    def diagonal_phases(self) -> "np.ndarray | None":
        sub_phases = self._sub_gate.diagonal_phases()
        if sub_phases is None:
            return None
        phases = np.ones(self.total_dim, dtype=complex)
        active = values_to_index(self._control_values, self._control_dims)
        sub_dim = self._sub_gate.total_dim
        phases[active * sub_dim : (active + 1) * sub_dim] = sub_phases
        return phases

    def _structural_spec(self) -> GateSpec:
        return GateSpec(
            "__controlled__",
            (self._sub_gate.spec(), self._control_values),
            self.dims,
        )

    def _canonical_spec(self) -> GateSpec:
        # Lower the sub-gate too, so e.g. CNOT equals a hand-built
        # ControlledGate over an equivalent X regardless of which
        # registered factory produced either sub-gate.
        return GateSpec(
            "__controlled__",
            (self._sub_gate.canonical_spec(), self._control_values),
            self.dims,
        )

    # -- classical fast path ----------------------------------------------
    #
    # Controlled permutation gates dominate the paper's circuits; resolving
    # them classically without building the (possibly large) joint unitary
    # keeps verification linear in circuit width.

    @property
    def is_classical(self) -> bool:
        return self._sub_gate.is_classical

    def classical_action(self, values: Sequence[int]) -> tuple[int, ...]:
        values = tuple(values)
        if len(values) != self.num_qudits:
            raise ValueError(
                f"expected {self.num_qudits} wire values, got {len(values)}"
            )
        n_ctrl = self.num_controls
        ctrl, rest = values[:n_ctrl], values[n_ctrl:]
        for v, dim in zip(ctrl, self._control_dims):
            if not 0 <= v < dim:
                raise ValueError(f"control value {v} out of range (d={dim})")
        if ctrl != self._control_values:
            # Still validate the sub-gate is classical so errors don't pass
            # silently on inactive branches.
            if not self._sub_gate.is_classical:
                raise NotClassicalError(
                    f"sub-gate {self._sub_gate.name} is not classical"
                )
            return values
        return ctrl + self._sub_gate.classical_action(rest)

    def _permutation(self) -> list[int]:
        if not self._sub_gate.is_classical:
            raise NotClassicalError(
                f"sub-gate {self._sub_gate.name} is not classical"
            )
        dims = self.dims
        total = self.total_dim
        perm = []
        for index in range(total):
            values = index_to_values(index, dims)
            perm.append(values_to_index(self.classical_action(values), dims))
        return perm


def _build_controlled_spec(spec: GateSpec) -> ControlledGate:
    sub_spec, control_values = spec.params
    sub_gate = GATE_REGISTRY.build(sub_spec)
    n_controls = len(spec.dims) - len(sub_gate.dims)
    return controlled(
        sub_gate, tuple(control_values), spec.dims[:n_controls]
    )


GATE_REGISTRY.register("__controlled__", _build_controlled_spec)


def controlled(
    sub_gate: Gate,
    control_values: Sequence[int] | None = None,
    control_dims: Sequence[int] | None = None,
) -> ControlledGate:
    """A controlled gate, shared per exact (sub-gate, values, dims).

    The builders derive every controlled gate through here, so a
    shared sub-gate with plain-int controls yields one shared
    :class:`ControlledGate` per process (see :mod:`repro.gates.intern`);
    an unshared sub-gate gives a fresh gate.  ``control_values``
    defaults to all 1.  If ``control_dims`` is omitted, every control
    defaults to a qutrit when its activation value is 2 and to the
    smallest dimension containing the value otherwise — callers in this
    library always pass dims explicitly except in tests.
    """
    if control_values is None and control_dims is None:
        control_values = (1,)
    if control_dims is None:
        assert control_values is not None
        control_dims = tuple(max(2, v + 1) for v in control_values)
    control_dims = tuple(control_dims)
    if control_values is None:
        control_values = (1,) * len(control_dims)
    control_values = tuple(control_values)
    sub_key = sub_gate._key
    if sub_key is None or not exact(*control_values, *control_dims):
        return ControlledGate(sub_gate, control_dims, control_values)
    return intern_gate(
        (
            "__controlled__",
            (sub_key, control_values),
            control_dims + sub_gate.dims,
        ),
        lambda: ControlledGate(sub_gate, control_dims, control_values),
    )
