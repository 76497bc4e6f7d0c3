"""The fused-moment trajectory engine: its damping law, its channel
families, its chunking, and its wide-register path."""

from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import SimulationError
from repro.gates.controlled import ControlledGate
from repro.gates.qubit import CNOT, H
from repro.gates.qutrit import X01, X_PLUS_1
from repro.noise.kraus import KrausChannel
from repro.noise.model import NoiseModel
from repro.noise.presets import SC
from repro.qudits import Qudit, qutrits
from repro.sim import fidelity as fidelity_module
from repro.sim import kernels
from repro.sim.density import DensityMatrixSimulator
from repro.sim.fidelity import (
    estimate_circuit_fidelity,
    estimate_circuit_fidelity_looped,
)
from repro.sim.kernels import clear_kernel_caches, kernel_cache_stats
from repro.sim.state import StateVector
from repro.sim.statevector import StateVectorSimulator
from repro.sim.trajectory import (
    BatchedTrajectorySimulator,
    TrajectorySimulator,
    _IdleStep,
)
from repro.toffoli.registry import build_toffoli

#: One qubit and two qutrits: a mixed-dimension register.
WIRES = [Qudit(0, 2), Qudit(1, 3), Qudit(2, 3)]
SHAPE = tuple(w.dimension for w in WIRES)

#: chi-square critical values at alpha = 0.001, indexed by dof.
CHI2_CRITICAL_0001 = {7: 24.322, 16: 39.252, 17: 40.790}


def damping_model(ratio: float) -> NoiseModel:
    """Damping only, with ``moment duration / T1 = ratio`` for 1q moments
    (lambda_1 = 1 - exp(-ratio), lambda_2 = 1 - exp(-2 ratio))."""
    return NoiseModel("damping", 0.0, 0.0, ratio * 1e-3, 3e-3, t1=1e-3)


def enumerated_law(model, duration, psi):
    """pattern -> ||K_J psi||^2 over every jump pattern J."""
    channels = [
        model.idle_channels(w.dimension, duration)[0] for w in WIRES
    ]
    law = {}
    for pattern in product(*(range(c.num_operators) for c in channels)):
        operator = np.ones((1, 1))
        for channel, branch in zip(channels, pattern):
            operator = np.kron(operator, channel.operator(branch))
        law[pattern] = operator @ psi
    return law


def observed_patterns(step, rows, rng):
    """Run one fused damping draw over ``rows``; pattern per row."""
    jumped, patterns = step.damp(rows, rng.random(len(rows)), rng)
    every = np.zeros((len(rows), len(WIRES)), dtype=np.intp)
    every[jumped] = patterns
    return jumped, every


def chi_square(every, law, rows):
    """(statistic, dof) of observed pattern counts vs ``law``."""
    counts = {}
    for pattern in map(tuple, every.tolist()):
        counts[pattern] = counts.get(pattern, 0) + 1
    probabilities = {
        pattern: float(np.vdot(vector, vector).real)
        for pattern, vector in law.items()
    }
    support = {p for p, prob in probabilities.items() if prob > 0}
    assert set(counts) <= support, "impossible jump pattern drawn"
    statistic = sum(
        (counts.get(p, 0) - rows * probabilities[p]) ** 2
        / (rows * probabilities[p])
        for p in support
    )
    return statistic, len(support) - 1, counts, probabilities


class TestDampingLaw:
    """The fused damping draw samples ||K_J psi||^2, the law of today's
    wire-by-wire draw, and leaves each row in K_J psi / ||K_J psi||."""

    ROWS = 100_000

    @pytest.mark.parametrize("entangled", [False, True],
                             ids=["haar", "ghz"])
    def test_jump_patterns_match_enumerated_law(self, entangled):
        model = damping_model(0.7)
        duration = model.gate_time_1q
        if entangled:
            # (|000> + |122>)/sqrt(2): each wire's branch moves the
            # later wires' populations by O(1).
            psi = np.zeros(SHAPE, dtype=complex)
            psi[0, 0, 0] = psi[1, 2, 2] = 1 / np.sqrt(2)
            psi = psi.reshape(-1)
        else:
            psi = StateVector.random(
                WIRES, np.random.default_rng(7)
            ).vector
        rows = np.tile(psi, (self.ROWS, 1))
        step = _IdleStep(model, WIRES, duration)
        rng = np.random.default_rng(1905)
        jumped, every = observed_patterns(step, rows, rng)
        law = enumerated_law(model, duration, psi)
        statistic, dof, counts, probabilities = chi_square(
            every, law, self.ROWS
        )
        assert dof == (7 if entangled else 17)
        assert statistic <= CHI2_CRITICAL_0001[dof], statistic
        # Two- and three-wire jumps are well represented.
        for jumps in (2, 3):
            seen = sum(
                n for p, n in counts.items()
                if sum(b > 0 for b in p) == jumps
            )
            assert seen > 2000, (jumps, seen)
        # Each row is the normalized image of its own pattern.
        for pattern, vector in law.items():
            members = np.flatnonzero((every == pattern).all(axis=1))[:5]
            if not members.size:
                continue
            expected = vector / np.linalg.norm(vector)
            for row in members:
                np.testing.assert_allclose(
                    rows[row], expected, atol=1e-12, rtol=0
                )
        assert jumped.size == self.ROWS - counts[(0, 0, 0)]

    def test_rows_with_zero_no_jump_weight_always_jump(self):
        # lambda = 1 on every excited level: a row with no |000>
        # amplitude has no-jump weight exactly 0 and must jump.
        model = damping_model(50.0)
        duration = model.gate_time_1q
        step = _IdleStep(model, WIRES, duration)
        psi = StateVector.random(WIRES, np.random.default_rng(3)).vector
        psi[0] = 0.0
        psi /= np.linalg.norm(psi)
        assert float(np.linalg.norm(step.no_jump_amplitude * psi)) == 0.0
        rows = np.tile(psi, (20_000, 1))
        rng = np.random.default_rng(11)
        jumped, every = observed_patterns(step, rows, rng)
        assert jumped.size == len(rows)
        assert np.isfinite(rows).all()
        np.testing.assert_allclose(
            np.linalg.norm(rows, axis=1), 1.0, atol=1e-12
        )
        law = enumerated_law(model, duration, psi)
        statistic, dof, _, _ = chi_square(every, law, len(rows))
        assert statistic <= CHI2_CRITICAL_0001[dof], statistic

    def test_looped_oracle_jump_counts_match_enumerated_law(self):
        # The looped oracle reads each wire's populations from the
        # current state, so its jump-count law is exact too.  After the
        # X01 the state is (|000> + |122>)/sqrt(2): a wire's no-jump
        # branch shifts the later wires' populations by O(1), which
        # marginals read before the moment's damping would miss.
        model = damping_model(0.7)
        duration = model.gate_time_1q
        idle = Circuit([X01.on(WIRES[1])])
        rng = np.random.default_rng(5)
        amplitudes = np.zeros(SHAPE)
        amplitudes[0, 1, 0] = amplitudes[1, 2, 2] = 1 / np.sqrt(2)
        initial = StateVector(WIRES, amplitudes)
        after_gate = StateVectorSimulator().run(idle, initial)
        law = enumerated_law(model, duration, after_gate.vector)
        by_jumps = np.zeros(4)
        for pattern, vector in law.items():
            by_jumps[sum(b > 0 for b in pattern)] += np.vdot(
                vector, vector
            ).real
        trials = 3000
        simulator = TrajectorySimulator(model, rng)
        observed = np.bincount(
            [
                simulator.run_trajectory(idle, initial).idle_jumps
                for _ in range(trials)
            ],
            minlength=4,
        )
        expected = trials * by_jumps
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic <= 16.266  # chi-square, 3 dof, alpha = 0.001


@dataclass(frozen=True)
class _LeakyModel(NoiseModel):
    """Adds a Kraus idle channel whose K^dag K is not diagonal."""

    def idle_channels(self, dim, duration):
        plus = np.full((dim, dim), 1.0 / dim)
        p = 0.1
        keep = np.eye(dim) - (1 - np.sqrt(1 - p)) * plus
        return [KrausChannel("leaky-plus", (dim,),
                             [keep, np.sqrt(p) * plus])]


@dataclass(frozen=True)
class _RotatedDampingModel(NoiseModel):
    """Damping whose no-jump operator is a Hadamard times the usual
    diagonal: K^dag K stays diagonal, K_0 does not."""

    def idle_channels(self, dim, duration):
        lam = 1.0 - np.exp(-duration / self.t1)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        keep = hadamard @ np.diag([1.0, np.sqrt(1.0 - lam)])
        jump = np.array([[0.0, np.sqrt(lam)], [0.0, 0.0]])
        return [KrausChannel("rotated-damping", (2,), [keep, jump])]


class TestChannelFamilies:
    def test_non_diagonal_no_jump_operator_keeps_the_law(self):
        a, b = Qudit(0, 2), Qudit(1, 2)
        circuit = Circuit([H.on(a), CNOT.on(a, b), H.on(b)])
        model = _RotatedDampingModel("rotated", 0.0, 0.0, 2e-4, 6e-4,
                                     t1=1e-3)
        initial = StateVector.random([a, b], np.random.default_rng(4))
        exact = DensityMatrixSimulator(model).mean_fidelity(
            circuit, initial
        )
        results = BatchedTrajectorySimulator(
            model, np.random.default_rng(8)
        ).run_batch(circuit, [initial] * 4000)
        fidelities = np.array([r.fidelity for r in results])
        error = fidelities.std(ddof=1) / np.sqrt(len(fidelities))
        assert abs(fidelities.mean() - exact) <= 4 * error

    def test_unsupported_channel_names_itself(self):
        a, b = qutrits(2)
        circuit = Circuit([X_PLUS_1.on(a)])
        model = _LeakyModel("leaky", 0.0, 0.0, 1e-7, 3e-7)
        simulator = BatchedTrajectorySimulator(
            model, np.random.default_rng(0)
        )
        with pytest.raises(SimulationError, match="leaky-plus"):
            simulator.run_batch(circuit, [StateVector.zero([a, b])])


class TestReferenceRows:
    def test_supplied_ideal_finals_match_stacked_rows(self):
        a, b = qutrits(2)
        circuit = Circuit([
            ControlledGate(X_PLUS_1, (3,), (1,)).on(a, b),
            ControlledGate(X01, (3,), (2,)).on(b, a),
        ])
        model = NoiseModel("m", 5e-3, 2e-3, 1e-6, 3e-6, t1=5e-5)
        inputs = BatchedTrajectorySimulator(
            model, np.random.default_rng(2)
        ).random_binary_inputs([a, b], 50)
        ideals = [StateVectorSimulator().run(circuit, s) for s in inputs]
        stacked = BatchedTrajectorySimulator(
            model, np.random.default_rng(9)
        ).run_batch(circuit, inputs)
        supplied = BatchedTrajectorySimulator(
            model, np.random.default_rng(9)
        ).run_batch(circuit, inputs, ideal_finals=ideals)
        for x, y in zip(stacked, supplied):
            assert x.gate_errors == y.gate_errors
            assert x.idle_jumps == y.idle_jumps
            assert abs(x.fidelity - y.fidelity) < 1e-12


class TestEngineSelection:
    """Every chunk size runs the fused engine, one-row chunks included,
    and one estimate builds its moment plans once; only
    ``estimate_circuit_fidelity_looped`` runs the looped oracle."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"plans": 0, "chunks": [], "looped": 0}
        plans = BatchedTrajectorySimulator._plans
        run = BatchedTrajectorySimulator._run
        looped = TrajectorySimulator.run_trajectory

        def counted_plans(self, *args):
            seen["plans"] += 1
            return plans(self, *args)

        def counted_run(self, plans, states, ideal_finals):
            seen["chunks"].append(len(states))
            return run(self, plans, states, ideal_finals)

        def counted_looped(self, *args, **kwargs):
            seen["looped"] += 1
            return looped(self, *args, **kwargs)

        monkeypatch.setattr(BatchedTrajectorySimulator, "_plans",
                            counted_plans)
        monkeypatch.setattr(BatchedTrajectorySimulator, "_run", counted_run)
        monkeypatch.setattr(TrajectorySimulator, "run_trajectory",
                            counted_looped)
        return seen

    @staticmethod
    def _circuit():
        a, b = qutrits(2)
        return Circuit([ControlledGate(X_PLUS_1, (3,), (1,)).on(a, b)])

    def test_auto_sized_one_row_chunks_run_fused(self, calls, monkeypatch):
        # A state wider than the chunk budget gets one-row chunks.
        monkeypatch.setattr(fidelity_module, "_AUTO_BATCH_ENTRIES", 4)
        estimate_circuit_fidelity(
            self._circuit(), damping_model(0.1), trials=3, seed=1
        )
        assert calls == {"plans": 1, "chunks": [1, 1, 1], "looped": 0}

    def test_single_trial_runs_fused(self, calls):
        estimate_circuit_fidelity(
            self._circuit(), damping_model(0.1), trials=1, seed=1
        )
        assert calls == {"plans": 1, "chunks": [1], "looped": 0}

    @pytest.mark.parametrize("budget, chunks", [
        (9, [1, 1, 1]), (18, [2, 1]), (45, [3]),
    ])
    def test_chunk_budget_only_sizes_chunks(
        self, calls, monkeypatch, budget, chunks
    ):
        # Two qutrits are 9 amplitudes: the budget allows budget // 9
        # rows per chunk, clamped to the trials.
        monkeypatch.setattr(fidelity_module, "_AUTO_BATCH_ENTRIES", budget)
        estimate_circuit_fidelity(
            self._circuit(), damping_model(0.1), trials=3, seed=1
        )
        assert calls == {"plans": 1, "chunks": chunks, "looped": 0}

    def test_looped_estimate_runs_the_oracle(self, calls):
        estimate = estimate_circuit_fidelity_looped(
            self._circuit(), damping_model(0.1), trials=3, seed=1
        )
        assert calls == {"plans": 0, "chunks": [], "looped": 3}
        assert estimate.trials == 3

    @pytest.mark.parametrize("estimate", [
        estimate_circuit_fidelity, estimate_circuit_fidelity_looped,
    ])
    def test_trials_below_one_rejected(self, estimate):
        with pytest.raises(ValueError, match="trials"):
            estimate(self._circuit(), damping_model(0.1), trials=0, seed=1)


class TestWideRegisters:
    """Above the gather budget every gate runs on its own block, with
    the same draws and amplitudes as the composed gathers."""

    @staticmethod
    def _circuit():
        a, b, c = qutrits(3)
        return Circuit([
            X_PLUS_1.on(a),
            ControlledGate(X_PLUS_1, (3,), (1,)).on(b, c),
            ControlledGate(X01, (3,), (2,)).on(a, b),
            X01.on(c),
        ])

    def test_no_gathers_and_same_results(self, monkeypatch):
        circuit = self._circuit()
        model = NoiseModel("mixed", 0.02, 0.005, 1e-3, 3e-3, t1=2e-3)
        narrow = BatchedTrajectorySimulator(
            model, np.random.default_rng(4)
        ).run_trials(circuit, circuit.all_qudits(), 40, 8)
        narrow = list(narrow)
        monkeypatch.setattr(kernels, "_GATHER_MAX_ENTRIES", 26)
        clear_kernel_caches()
        wide = BatchedTrajectorySimulator(
            model, np.random.default_rng(4)
        ).run_trials(circuit, circuit.all_qudits(), 40, 8)
        wide = list(wide)
        stats = kernel_cache_stats()
        assert stats["permutation_gathers"] == 0
        assert stats["segment_gathers"] == 0
        assert [(r.gate_errors, r.idle_jumps) for r in wide] == [
            (r.gate_errors, r.idle_jumps) for r in narrow
        ]
        assert sum(r.idle_jumps + r.gate_errors for r in wide) > 0
        np.testing.assert_allclose(
            [r.fidelity for r in wide], [r.fidelity for r in narrow],
            atol=1e-12,
        )


class TestDiagonalGates:
    """Diagonal gates are one multiply step in the moment plan, on both
    the gather and the no-gather path, and never a block step."""

    @staticmethod
    def _built():
        return build_toffoli("qubit_ancilla_free", 5)

    @staticmethod
    def _counts(plans):
        kinds = [step[0] for plan in plans for step in plan.steps]
        return (
            kinds.count(kernels.MULTIPLY),
            kinds.count(kernels.CONTROL) + kinds.count(kernels.DENSE),
            kinds.count(kernels.GATHER),
        )

    def test_plan_multiplies_every_diagonal_gate(self, monkeypatch):
        built = self._built()
        assert built.circuit.num_operations == 461
        simulator = BatchedTrajectorySimulator(SC)
        phases, blocks, gathers = self._counts(
            simulator._plans(built.circuit, built.all_wires)
        )
        # 120 T and 90 T^-1 multiply; 60 H and 9 controlled roots
        # contract; the 182 CNOTs compose into gathers.
        assert (phases, blocks) == (210, 69)
        assert gathers > 0
        monkeypatch.setattr(kernels, "_GATHER_MAX_ENTRIES", 1)
        phases, blocks, gathers = self._counts(
            simulator._plans(built.circuit, built.all_wires)
        )
        assert (phases, blocks, gathers) == (210, 251, 0)

    def test_no_diagonal_gate_takes_a_block_step(self, monkeypatch):
        # Both engines plan through GatePlan: record, per engine (the
        # plan's lead axes), whether each block-step gate is diagonal.
        seen = []
        original = kernels.GatePlan._step

        def spy(self, op, axes):
            step = original(self, op, axes)
            if step is not None and step[0] != kernels.MULTIPLY:
                seen.append((self.lead, op.gate.is_diagonal))
            return step

        monkeypatch.setattr(kernels.GatePlan, "_step", spy)
        built = self._built()
        StateVectorSimulator().run(built.circuit)
        estimate_circuit_fidelity(
            built.circuit, SC, trials=4, seed=1, wires=built.all_wires
        )
        assert {lead for lead, _ in seen} == {0, 1}
        assert not any(diagonal for _, diagonal in seen)
