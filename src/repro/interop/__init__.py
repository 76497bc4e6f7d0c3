"""Qubit <-> qutrit dimension-transform front end.

The paper's headline claim is that *any* qubit circuit can be re-hosted
on qutrit hardware and win via temporary ternary compilation.  This
package is the entry ramp: it lifts arbitrary qubit circuits onto
qutrit (or any d >= 3) wires gate-by-gate, lowers them back with a
proof obligation that the |2> population was transient, and benchmarks
naive lifting against temporary-ternary compilation on the paper's
workloads (in the style of CirqTrit's ``dimension_transform``).

Layer map:

* gate layer — :class:`~repro.gates.embedded.EmbeddedGate` (re-exported
  here): block-diagonal embedding that retains its sub-gate;
* transform layer — :func:`lift_gate` / :func:`lower_gate` and the
  circuit-level :func:`lift_circuit` / :func:`lower_circuit`, plus the
  compile passes :class:`LiftToQutrits` and :class:`LowerToQubits`;
* verification — :func:`repro.verify.assert_equivalent` with the qubit
  circuit as the reference: a lifted circuit must act on the embedded
  qubit subspace exactly as its original;
* qubit-basis compilation — :class:`DecomposeToQubitBasis`, the
  CNOT + single-qubit lowering that defines the *naive lift* baseline;
* workloads + bench — :mod:`repro.interop.workloads` and
  :func:`run_interop_bench` (see :mod:`repro.analysis.bench`).
"""

from ..gates.embedded import EmbeddedGate
from .transform import (
    LiftToQutrits,
    LowerToQubits,
    lift_circuit,
    lift_gate,
    lower_circuit,
    lower_gate,
)
from .qubitbasis import (
    DecomposeToQubitBasis,
    controlled_u_to_qubit_basis,
    to_qubit_basis,
    zyz_angles,
)
from .workloads import (
    WORKLOADS,
    build_workload,
    grover_circuit,
    qft_circuit,
    random_clifford_t,
    ripple_carry_adder,
)
from .bench import (
    INTEROP_SCHEMA,
    check_interop_regression,
    interop_record_key,
    render_interop_table,
    run_interop_bench,
)

__all__ = [
    "EmbeddedGate",
    "lift_gate",
    "lower_gate",
    "lift_circuit",
    "lower_circuit",
    "LiftToQutrits",
    "LowerToQubits",
    "DecomposeToQubitBasis",
    "to_qubit_basis",
    "controlled_u_to_qubit_basis",
    "zyz_angles",
    "WORKLOADS",
    "build_workload",
    "qft_circuit",
    "ripple_carry_adder",
    "random_clifford_t",
    "grover_circuit",
    "run_interop_bench",
    "check_interop_regression",
    "render_interop_table",
    "interop_record_key",
    "INTEROP_SCHEMA",
]
