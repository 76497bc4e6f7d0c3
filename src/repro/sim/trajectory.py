"""Quantum-trajectory noise simulation (Algorithm 1 of the paper).

One trajectory = one run of the circuit on a random initial state where,
after every gate, a depolarizing error term may fire, and, after every
moment, every qudit suffers an idle channel whose duration matches the
moment (two-qudit moments are longer).  The returned figure of merit is the
fidelity |<psi_ideal | psi_actual>|^2 against the noise-free evolution of
the same initial state.

Averaged over trajectories this converges to the density-matrix result
(Sec. 6.2), at state-vector cost.

Two engines share that schedule and sample the same per-trajectory law:

* :class:`BatchedTrajectorySimulator` — the production engine, fused per
  moment.  ``B`` trajectories are the rows of one flat ``(B, D)`` array,
  with their ``B`` noise-free reference rows stacked underneath, so every
  gate runs once for both.  The gates are planned by
  :class:`~repro.sim.kernels.GatePlan`, as in the state-vector engine,
  with the segment closed after every moment: each diagonal gate is one
  in-place multiply of its phase tensor broadcast onto its axes, every
  other non-permutation gate applies its kernel block (a
  :class:`~repro.gates.controlled.ControlledGate` only on its control
  block), and then the moment's permutation gates run as one cached
  gather.  State-independent noise — gate errors and idle kicks
  — is drawn for every row at once and applied only to the rows where a
  branch fired.  Amplitude damping takes the no-jump branch in one pass
  per moment: every row is multiplied by the no-jump product once, and
  the squared norm of that product is the probability ``p . G0`` that
  the row keeps the no-jump branch on every wire (``G0`` the
  full-register product of the wires' no-jump Gram diagonals).  Only a
  row that jumps forms ``|psi|^2``: it draws its first jumping (wire,
  branch) by the chain rule, then each later wire from its current
  populations.
* :class:`TrajectorySimulator` — the looped oracle, one trajectory at a
  time (one :class:`~repro.sim.state.StateVector` per shot, one channel
  draw at a time).  No batch size selects it: tests and the noise
  benchmark run it directly
  (:func:`~repro.sim.fidelity.estimate_circuit_fidelity_looped`).

The engines consume their RNG streams differently, so fixed-seed results
agree in distribution (asserted statistically in the tests), not
draw-for-draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..exceptions import SimulationError
from ..noise.kraus import KrausChannel, UnitaryMixtureChannel
from ..noise.model import NoiseModel
from ..qudits import Qudit
from .kernels import GatePlan, apply_block, apply_steps
from .state import StateVector
from .statevector import StateVectorSimulator


@dataclass(frozen=True)
class TrajectoryResult:
    """Outcome of a single noisy trajectory."""

    fidelity: float
    gate_errors: int
    idle_jumps: int


class TrajectorySimulator:
    """Runs noisy trajectories of a circuit under a :class:`NoiseModel`."""

    def __init__(
        self, noise_model: NoiseModel, rng: np.random.Generator | None = None
    ) -> None:
        self._model = noise_model
        self._rng = rng or np.random.default_rng()

    @property
    def noise_model(self) -> NoiseModel:
        """The device model supplying gate-error and idle channels."""
        return self._model

    # ------------------------------------------------------------------

    def run_trajectory(
        self,
        circuit: Circuit,
        initial_state: StateVector,
        ideal_final: StateVector | None = None,
    ) -> TrajectoryResult:
        """One noisy pass of ``circuit`` from ``initial_state``.

        ``ideal_final`` (the noise-free output for the same input) is
        computed on the fly when not supplied; passing it in lets callers
        amortise the ideal run across trajectories that share an input.
        """
        state = initial_state.copy()
        wires = state.wires
        circuit_wires = set(circuit.all_qudits())
        if not circuit_wires.issubset(wires):
            raise SimulationError(
                "initial state does not cover all circuit wires"
            )
        if ideal_final is None:
            ideal_final = StateVectorSimulator().run(circuit, initial_state)

        gate_errors = 0
        idle_jumps = 0
        idle_cache: dict[
            tuple[int, float], list[KrausChannel | UnitaryMixtureChannel]
        ] = {}

        for moment in circuit:
            # Gates, each followed by its depolarizing error draw.
            for op in moment:
                state.apply_operation(op)
                dims = tuple(w.dimension for w in op.qudits)
                channel = self._model.gate_error(dims)
                if channel.apply_sampled(state, op.qudits, self._rng):
                    gate_errors += 1
            # Idle errors for every wire, scaled to the moment duration.
            # Each Kraus draw reads the wire's populations from the
            # current state, after the earlier wires' branches, so the
            # wire-by-wire draws sample ||K_J psi||^2 exactly.
            duration = self._model.moment_duration(moment)
            for wire in wires:
                key = (wire.dimension, duration)
                if key not in idle_cache:
                    idle_cache[key] = self._model.idle_channels(
                        wire.dimension, duration
                    )
                for idle in idle_cache[key]:
                    if isinstance(idle, KrausChannel):
                        if idle.apply_sampled(state, [wire], self._rng) > 0:
                            idle_jumps += 1
                    elif idle.apply_sampled(state, [wire], self._rng):
                        idle_jumps += 1
            state.renormalize()

        return TrajectoryResult(
            fidelity=state.fidelity(ideal_final),
            gate_errors=gate_errors,
            idle_jumps=idle_jumps,
        )

    # ------------------------------------------------------------------

    def random_binary_input(
        self, wires: Sequence[Qudit]
    ) -> StateVector:
        """A Haar-random state over the *binary* subspace of ``wires``.

        The paper's circuits keep inputs and outputs binary even on qutrit
        wires (|2> is only occupied transiently), so initial states populate
        levels {0, 1} of every wire.
        """
        caps = {w: 2 for w in wires}
        return StateVector.random(
            list(wires), rng=self._rng, levels_per_wire=caps
        )


# -- fused-moment engine ---------------------------------------------------


def _unsupported(channel: object) -> SimulationError:
    name = getattr(channel, "name", type(channel).__name__)
    return SimulationError(
        f"the trajectory engine cannot sample channel {name!r}: it takes "
        "unitary mixtures and, per wire, one Kraus channel whose "
        "K^dag K are all diagonal"
    )


def _choose(probabilities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the column whose cumulative interval holds ``u``.

    Column ``c`` owns ``[cum[c-1], cum[c])``, so zero-probability columns
    are never chosen; a draw at or past the top (round-off) falls to the
    row's last positive column.
    """
    cumulative = np.cumsum(probabilities, axis=1)
    chosen = (cumulative <= u[:, None]).sum(axis=1)
    width = probabilities.shape[1]
    last = width - 1 - np.argmax(probabilities[:, ::-1] > 0, axis=1)
    return np.minimum(chosen, last)


class _WireDamping:
    """One wire's diagonal-Gram Kraus channel, in row-stack form."""

    def __init__(self, channel: KrausChannel, axis: int, ndim: int) -> None:
        #: Axis of the wire in a ``(rows, d_0, ..., d_{n-1})`` tensor.
        self.axis = axis
        #: ``(branches, d)`` Gram diagonals; branch 0 is the no-jump one.
        self.gram = channel.gram_diagonal_matrix
        self.blocks = [
            channel.operator(b) for b in range(channel.num_operators)
        ]
        #: Shape that broadcasts a per-level vector along ``axis``.
        self.broadcast = tuple(
            channel.dims[0] if a == axis else 1 for a in range(ndim)
        )
        self.diagonals = [
            None if d is None else d.reshape(self.broadcast)
            for d in (
                channel.operator_diagonal(b)
                for b in range(channel.num_operators)
            )
        ]

    def apply(self, rows: np.ndarray, branch: int) -> np.ndarray:
        """``rows`` (owned by the caller) after ``branch``'s operator."""
        diagonal = self.diagonals[branch]
        if diagonal is not None:
            rows *= diagonal
            return rows
        return apply_block(rows, self.blocks[branch], [self.axis])


class _IdleStep:
    """Every wire's idle channels for one moment duration."""

    def __init__(
        self, model: NoiseModel, wires: Sequence[Qudit], duration: float
    ) -> None:
        self.shape = tuple(w.dimension for w in wires)
        #: Unitary mixtures listed before / after their wire's Kraus
        #: channel, as ``(channel, axes)``.
        self.before: list = []
        self.after: list = []
        #: Per wire, its damping (or None).
        self.damping: list[_WireDamping | None] = []
        ndim = len(wires) + 1
        for k, wire in enumerate(wires):
            kraus = None
            for channel in model.idle_channels(wire.dimension, duration):
                if isinstance(channel, UnitaryMixtureChannel):
                    if channel.error_probability > 0:
                        group = self.after if kraus else self.before
                        group.append((channel, [k]))
                elif (
                    isinstance(channel, KrausChannel)
                    and channel.gram_diagonal_matrix is not None
                    and kraus is None
                ):
                    kraus = channel
                else:
                    raise _unsupported(channel)
            self.damping.append(
                _WireDamping(kraus, k + 1, ndim) if kraus else None
            )
        #: True if any wire damps in this step.
        self.damps = any(self.damping)
        #: Full-register product of the no-jump diagonals, when every
        #: damping wire's no-jump operator is diagonal (else None).
        self.no_jump_amplitude = None
        if self.damps and all(d is None or d.diagonals[0] is not None
                              for d in self.damping):
            amplitude = self._product([
                d.diagonals[0].reshape(-1) if d else None
                for d in self.damping
            ])
            if not np.any(amplitude.imag):
                amplitude = amplitude.real.copy()
            self.no_jump_amplitude = amplitude

    def _product(self, factors: list) -> np.ndarray:
        """Full-register product of per-wire vectors (None = ones)."""
        vectors = [
            np.ones(d) if f is None else np.asarray(f)
            for f, d in zip(factors, self.shape)
        ]
        return reduce(np.multiply.outer, vectors).reshape(-1)

    def damp(
        self, noisy: np.ndarray, u: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """One damping draw for every row of ``noisy`` (updated in place).

        Returns the rows that jumped and their ``(rows, wires)`` branch
        pattern.  Every row is first taken through the no-jump branch on
        every wire, once; the squared norm of that product is the row's
        no-jump weight ``p . G0``, since every ``K0^dag K0`` is diagonal.
        A row keeps the branch iff ``u < p . G0``, and is then the
        product divided by the square root of that weight, which is also
        its renormalization.  Only the rows that jump form ``|psi|^2``.
        """
        kept = self._no_jump(noisy)
        flat = kept.view(np.float64)
        weight = np.einsum("ij,ij->i", flat, flat)
        jumped = np.flatnonzero(u >= weight)
        patterns = np.zeros((0, len(self.shape)), dtype=np.intp)
        if jumped.size:
            rows = noisy[jumped]
            probabilities = np.abs(rows)
            np.square(probabilities, out=probabilities)
            rows, patterns, valid = self._jump(
                rows, probabilities, weight[jumped], u[jumped], rng,
            )
            jumped, rows, patterns = jumped[valid], rows[valid], \
                patterns[valid]
            weight[jumped] = 1.0
        # A real multiply of the float view by 1/sqrt(weight) gives the
        # bits a complex division by sqrt(weight) would, at a third of
        # the cost.
        flat *= (1.0 / np.sqrt(weight))[:, None]
        noisy[...] = kept
        if jumped.size:
            noisy[jumped] = rows
        return jumped, patterns

    def _no_jump(self, noisy: np.ndarray) -> np.ndarray:
        """A new C-ordered array: ``noisy`` after every wire's no-jump
        operator (one multiply when they are all diagonal)."""
        if self.no_jump_amplitude is not None:
            return np.multiply(noisy, self.no_jump_amplitude, order="C")
        tensor = noisy.reshape((len(noisy),) + self.shape).copy()
        for wire in self.damping:
            if wire is not None:
                tensor = wire.apply(tensor, 0)
        return np.ascontiguousarray(tensor).reshape(noisy.shape)

    def _jump(
        self,
        rows: np.ndarray,
        probabilities: np.ndarray,
        weight: np.ndarray,
        u: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Jump branches for rows that drew ``u >= weight``.

        The first jumping (wire ``k``, branch ``j``) is drawn with the
        row's own uniform from ``q(k, j) = sum_x p(x) prod_{w<k}
        g0_w(x_w) g_{j,k}(x_k)``, placed after the no-jump weight; each
        later wire then draws from its current populations.  Returns the
        new rows, their branch patterns, and which rows could jump at
        all (round-off can put ``u`` past a weight that is truly 1).
        """
        count, n = len(rows), len(self.shape)
        tensor = probabilities.reshape((count,) + self.shape)
        columns, owners = [weight], [(-1, 0)]
        for k, wire in enumerate(self.damping):
            if wire is None:
                continue
            others = tuple(a for a in range(1, n + 1) if a != wire.axis)
            marginal = tensor.sum(axis=others)
            columns.extend((marginal @ wire.gram[1:].T).T)
            owners.extend((k, j) for j in range(1, len(wire.gram)))
            tensor = tensor * wire.gram[0].reshape(wire.broadcast)
        q = np.stack(columns, axis=1)
        choice = _choose(q, u)
        valid = choice > 0
        patterns = np.zeros((count, n), dtype=np.intp)
        states = rows.reshape((count,) + self.shape)
        first = np.full(count, n, dtype=np.intp)
        for column in np.unique(choice[valid]):
            k, j = owners[column]
            group = np.flatnonzero(choice == column)
            block = states[group]
            for wire in self.damping[:k]:
                if wire is not None:
                    block = wire.apply(block, 0)
            block = self.damping[k].apply(block, j)
            block /= np.sqrt(q[group, column]).reshape((-1,) + (1,) * n)
            states[group] = block
            patterns[group, k] = j
            first[group] = k
        # Later wires: the chain rule from each row's current state.
        for k, wire in enumerate(self.damping):
            group = np.flatnonzero(first < k)
            if wire is None or not group.size:
                continue
            block = states[group]
            population = np.abs(block) ** 2
            others = tuple(a for a in range(1, n + 1) if a != wire.axis)
            branch_probs = population.sum(axis=others) @ wire.gram.T
            draws = rng.random(group.size) * branch_probs.sum(axis=1)
            branches = _choose(branch_probs, draws)
            for branch in np.unique(branches):
                members = np.flatnonzero(branches == branch)
                part = wire.apply(block[members], int(branch))
                part /= np.sqrt(branch_probs[members, branch]).reshape(
                    (-1,) + (1,) * n
                )
                block[members] = part
            states[group] = block
            patterns[group, k] = branches
        return states.reshape(count, -1), patterns, valid


@dataclass
class _MomentPlan:
    """One moment's gates and state-independent noise, ready to run.

    Not frozen: one is built per moment per estimate, and a frozen
    dataclass's ``__init__`` costs about 2.5 times as much.
    """

    #: The moment's gates as :class:`~repro.sim.kernels.GatePlan` steps
    #: on the row tensor.
    steps: list
    #: Gate errors, then kicks before damping, then kicks after it, as
    #: ``(UnitaryMixtureChannel, state axes)``.
    mixtures: list
    #: Identity-branch probability of each mixture, shape ``(m, 1)``.
    identity: np.ndarray
    #: How many mixtures are gate errors / precede damping.
    num_gate_errors: int
    num_before_damping: int
    idle: _IdleStep


class BatchedTrajectorySimulator:
    """Runs ``B`` noisy trajectories at once, fused moment by moment.

    See the module docstring for the design.  The public surface mirrors
    :class:`TrajectorySimulator` shot-for-shot: one
    :class:`TrajectoryResult` per row, drawn from the same
    per-trajectory distribution.  The noise model may build unitary
    mixtures and, per wire, one Kraus channel with diagonal Gram
    matrices; any other channel raises :class:`SimulationError`.
    """

    def __init__(
        self, noise_model: NoiseModel, rng: np.random.Generator | None = None
    ) -> None:
        self._model = noise_model
        self._rng = rng or np.random.default_rng()

    @property
    def noise_model(self) -> NoiseModel:
        """The device model supplying gate-error and idle channels."""
        return self._model

    def _plans(
        self, circuit: Circuit, wires: Sequence[Qudit]
    ) -> list[_MomentPlan]:
        if not set(circuit.all_qudits()).issubset(wires):
            raise SimulationError(
                "initial state does not cover all circuit wires"
            )
        shape = tuple(w.dimension for w in wires)
        gates = GatePlan(shape, lead=1)
        axis = {w: k for k, w in enumerate(wires)}
        idle_steps: dict[float, _IdleStep] = {}
        # Per gate instance (gates are interned, so a circuit holds few):
        # its error channel, or None if it never fires.
        gate_errors: dict[int, UnitaryMixtureChannel | None] = {}
        plans = []
        for moment in circuit:
            placed, errors = [], []
            for op in moment:
                gate = op.gate
                axes = [axis[w] for w in op.qudits]
                placed.append((op, axes))
                error = gate_errors.get(id(gate), False)
                if error is False:
                    error = self._model.gate_error(gate.dims)
                    if not isinstance(error, UnitaryMixtureChannel):
                        raise _unsupported(error)
                    if error.error_probability <= 0:
                        error = None
                    gate_errors[id(gate)] = error
                if error is not None:
                    errors.append((error, axes))
            duration = self._model.moment_duration(moment)
            idle = idle_steps.get(duration)
            if idle is None:
                idle = idle_steps[duration] = _IdleStep(
                    self._model, wires, duration
                )
            mixtures = errors + idle.before + idle.after
            plans.append(
                _MomentPlan(
                    steps=gates.moment(placed) + gates.close(),
                    mixtures=mixtures,
                    identity=np.array(
                        [[1.0 - c.error_probability] for c, _ in mixtures]
                    ),
                    num_gate_errors=len(errors),
                    num_before_damping=len(errors) + len(idle.before),
                    idle=idle,
                )
            )
        return plans

    def run_batch(
        self,
        circuit: Circuit,
        initial_states: Sequence[StateVector],
        ideal_finals: Sequence[StateVector] | None = None,
    ) -> list[TrajectoryResult]:
        """One noisy pass of ``circuit`` for every initial state.

        All initial states must share one wire order.  ``ideal_finals``
        (the noise-free outputs for the same inputs) are computed in the
        same pass, as rows stacked under the noisy ones, when not
        supplied.
        """
        if not initial_states:
            return []
        wires = initial_states[0].wires
        for state in initial_states:
            if state.wires != wires:
                raise SimulationError(
                    "batched trajectories need a common wire order"
                )
        return self._run(
            self._plans(circuit, wires), initial_states, ideal_finals
        )

    def run_trials(
        self,
        circuit: Circuit,
        wires: Sequence[Qudit],
        trials: int,
        batch_size: int,
    ) -> Iterator[TrajectoryResult]:
        """``trials`` trajectories from fresh binary-subspace inputs.

        Runs ``batch_size`` rows at a time (each chunk's inputs drawn by
        :meth:`random_binary_inputs` just before it runs) and builds the
        moment plans once for every chunk, so one-row chunks of a wide
        register do not rebuild the register-sized no-jump products.
        """
        plans = self._plans(circuit, wires)
        done = 0
        while done < trials:
            chunk = min(batch_size, trials - done)
            yield from self._run(
                plans, self.random_binary_inputs(wires, chunk), None
            )
            done += chunk

    def _run(
        self,
        plans: list[_MomentPlan],
        initial_states: Sequence[StateVector],
        ideal_finals: Sequence[StateVector] | None,
    ) -> list[TrajectoryResult]:
        count = len(initial_states)
        shape = initial_states[0].tensor.shape
        stacked = list(initial_states)
        if ideal_finals is None:
            stacked += initial_states
        psi = np.stack(
            [s.tensor.reshape(-1) for s in stacked]
        ).astype(complex, copy=False)
        row_shape = (len(psi),) + shape
        gate_errors = np.zeros(count, dtype=int)
        idle_jumps = np.zeros(count, dtype=int)
        rng = self._rng

        for plan in plans:
            if plan.steps:
                psi = apply_steps(
                    psi.reshape(row_shape), plan.steps, 1
                ).reshape(psi.shape)
            noisy = psi[:count]
            mixtures = plan.mixtures
            damping = plan.idle.damps
            if not mixtures and not damping:
                continue
            draws = rng.random((len(mixtures) + damping, count))
            fired: list = []
            if mixtures:
                kinds, members = (
                    draws[: len(mixtures)] >= plan.identity
                ).nonzero()
                fired = list(zip(kinds.tolist(), members.tolist()))
            for index, row in fired:
                if index < plan.num_before_damping:
                    self._kick(plan, index, row, draws, noisy, shape,
                               gate_errors, idle_jumps)
            if damping:
                jumped, patterns = plan.idle.damp(noisy, draws[-1], rng)
                if jumped.size:
                    idle_jumps[jumped] += (patterns > 0).sum(axis=1)
            for index, row in fired:
                if index >= plan.num_before_damping:
                    self._kick(plan, index, row, draws, noisy, shape,
                               gate_errors, idle_jumps)

        if ideal_finals is not None:
            ideal = np.stack([s.tensor.reshape(-1) for s in ideal_finals])
        else:
            ideal = psi[count:]
        overlaps = np.einsum("ij,ij->i", ideal.conj(), psi[:count])
        fidelities = np.abs(overlaps) ** 2
        return [
            TrajectoryResult(
                fidelity=float(fidelities[index]),
                gate_errors=int(gate_errors[index]),
                idle_jumps=int(idle_jumps[index]),
            )
            for index in range(count)
        ]

    @staticmethod
    def _kick(plan, index, row, draws, noisy, shape, gate_errors,
              idle_jumps) -> None:
        """Apply the branch mixture ``index`` drew for ``row``."""
        channel, axes = plan.mixtures[index]
        branch = channel.branch_index(float(draws[index, row]))
        state = noisy[row].reshape(shape)
        diagonal = channel.operator_diagonal(branch)
        if diagonal is not None and len(axes) == 1:
            broadcast = [1] * len(shape)
            broadcast[axes[0]] = len(diagonal)
            state *= diagonal.reshape(broadcast)
        else:
            dims = channel.dims
            block = channel.operator(branch).reshape(dims + dims)
            noisy[row] = apply_block(state, block, axes).reshape(-1)
        if index < plan.num_gate_errors:
            gate_errors[row] += 1
        else:
            idle_jumps[row] += 1

    def random_binary_inputs(
        self, wires: Sequence[Qudit], count: int
    ) -> list[StateVector]:
        """``count`` independent binary-subspace random inputs."""
        caps = {w: 2 for w in wires}
        return [
            StateVector.random(
                list(wires), rng=self._rng, levels_per_wire=caps
            )
            for _ in range(count)
        ]
