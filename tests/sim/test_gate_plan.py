"""The one gate plan both state-vector engines run
(:class:`repro.sim.kernels.GatePlan`): its step sequence and its
segment rule."""

import numpy as np

from repro.circuits.circuit import Circuit
from repro.gates.controlled import ControlledGate
from repro.gates.qubit import CNOT, H, T, X
from repro.gates.qutrit import QUTRIT_H, X01, X_PLUS_1, Z3
from repro.noise.presets import SC
from repro.qudits import Qudit
from repro.sim import kernels
from repro.sim.kernels import CONTROL, DENSE, GATHER, MULTIPLY
from repro.sim.state import StateVector
from repro.sim.statevector import StateVectorSimulator, circuit_steps
from repro.sim.trajectory import BatchedTrajectorySimulator

DENSE_ORACLE = StateVectorSimulator(permutation_fast_path=False)


def _fixture():
    """Three qubits and a qutrit, four moments, every step kind."""
    a, b, c = (Qudit(k, 2) for k in range(3))
    t = Qudit(3, 3)
    moments = [
        [X.on(a), T.on(b)],
        [CNOT.on(a, b)],
        [H.on(a), ControlledGate(H, (2,)).on(b, c), X01.on(t)],
        [T.on(a), CNOT.on(b, c)],
    ]
    circuit = Circuit()
    for moment in moments:
        circuit.append_moment(moment)
    return circuit, [a, b, c, t], [op for m in moments for op in m]


def _program_order_passes(circuit, wires):
    """Gathers of the run loop that preceded the plan: every other gate
    ends the open permutation segment, in program order."""
    passes, open_segment = 0, False
    for moment in circuit:
        for op in moment:
            if kernels.permutation_kernel(op).is_permutation:
                open_segment = True
            elif open_segment:
                passes, open_segment = passes + 1, False
    return passes + open_segment


def _assert_multiplies(step, op, axes):
    index, factor = kernels.diagonal_factor(op, axes, 4)
    assert step[1] == index
    np.testing.assert_array_equal(step[2], factor)


def test_step_sequence_of_a_fixture_circuit():
    circuit, wires, ops = _fixture()
    x, t_b, cnot, h, _, x01, t_a, cnot_bc = ops
    shape = (2, 2, 2, 3)
    steps = list(circuit_steps(circuit, wires))
    # Moment 1 opens no gather: its T goes first and its X opens the
    # segment; moment 2 extends it; moment 3's X01 joins it, and it ends
    # as one gather before moment 3's blocks; moment 4's T goes first
    # and its CNOT opens the segment the run closes.
    assert [step[0] for step in steps] == [
        MULTIPLY, GATHER, DENSE, CONTROL, MULTIPLY, GATHER,
    ]
    _assert_multiplies(steps[0], t_b, [1])
    np.testing.assert_array_equal(
        steps[1][1],
        kernels.segment_permutation_gather(
            [(x, [0]), (cnot, [0, 1]), (x01, [3])], shape
        ),
    )
    assert steps[2][1] == [0]
    assert steps[2][2] is kernels.gate_kernel(h).block
    index, targets = steps[3][1]
    assert index == (slice(None), 1, slice(None), slice(None))
    assert targets == [1]
    _assert_multiplies(steps[4], t_a, [0])
    np.testing.assert_array_equal(
        steps[5][1], kernels.permutation_gather(cnot_bc, [1, 2], shape)
    )
    assert _program_order_passes(circuit, wires) == 4
    initial = StateVector.random(wires, np.random.default_rng(5))
    np.testing.assert_allclose(
        StateVectorSimulator().run(circuit, initial).vector,
        DENSE_ORACLE.run(circuit, initial).vector,
        atol=1e-12, rtol=0,
    )


def test_trajectory_plan_closes_the_segment_every_moment():
    circuit, wires, _ = _fixture()
    plans = BatchedTrajectorySimulator(SC)._plans(circuit, wires)
    assert [[step[0] for step in plan.steps] for plan in plans] == [
        [MULTIPLY, GATHER],
        [GATHER],
        [DENSE, CONTROL, GATHER],
        [MULTIPLY, GATHER],
    ]
    # The row stack's leading axis shifts every planned axis by one.
    assert plans[2].steps[0][1] == [1]


def _random_circuit(rng):
    """Random moments over 3-5 mixed qubit/qutrit wires: permutation,
    diagonal, controlled and dense gates, on 1 or 2 wires each."""
    wires = [
        Qudit(k, int(d)) for k, d in enumerate(rng.choice((2, 3), 5))
    ][: rng.integers(3, 6)]

    def one(wire, kind):
        qubit = wire.dimension == 2
        return [
            X if qubit else (X01, X_PLUS_1)[rng.integers(2)],
            T if qubit else Z3,
            H if qubit else QUTRIT_H,
        ][kind].on(wire)

    def two(control, target, kind):
        sub = one(target, kind).gate
        value = int(rng.integers(control.dimension))
        return ControlledGate(sub, (control.dimension,), (value,)).on(
            control, target
        )

    circuit = Circuit()
    for _ in range(rng.integers(4, 16)):
        free = list(rng.permutation(len(wires)))
        moment = []
        while free:
            # Kinds: 0 permutation (most often), 1 diagonal, 2 dense.
            kind = int(rng.choice(3, p=(0.6, 0.2, 0.2)))
            if len(free) >= 2 and rng.random() < 0.4:
                moment.append(two(wires[free.pop()], wires[free.pop()],
                                  kind))
            elif rng.random() < 0.8:
                moment.append(one(wires[free.pop()], kind))
            else:
                free.pop()
        if moment:
            circuit.append_moment(moment)
    return circuit, wires


def test_segment_rule_never_adds_gather_passes():
    fewer = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        circuit, wires = _random_circuit(rng)
        passes = sum(
            step[0] == GATHER for step in circuit_steps(circuit, wires)
        )
        before = _program_order_passes(circuit, wires)
        assert passes <= before, seed
        fewer += passes < before
        initial = StateVector.random(wires, rng)
        np.testing.assert_allclose(
            StateVectorSimulator().run(circuit, initial).vector,
            DENSE_ORACLE.run(circuit, initial).vector,
            atol=1e-12, rtol=0,
        )
    assert fewer > 0
