"""Reference checks for served results, run after the timed phase.

No reference comes from the path under test:

* constructions: the hand-written truth table — controls unchanged,
  the target flips iff every control is 1, ancillas end in 0;
* interop circuits: the uncompiled circuit on the dense oracle
  ``StateVectorSimulator(permutation_fast_path=False)``, mapped onto the
  served physical wires through the route stage's recorded
  ``initial_placement`` / ``final_placement``;
* trajectory estimates: pooled per (construction, noise) configuration
  over every distinct run seed served, the density engine's exact
  fidelity, within five standard errors of the pooled mean plus 0.01
  (see :meth:`Checker.trajectory_problems`).

Placements and the compiled-circuit counts come from compiling the
request's circuit again with the same ``PipelineSpec``; compilation is
deterministic, and the served state's wires must equal the recompiled
circuit's wires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.execution.cache import circuit_fingerprint
from repro.execution.pipeline_spec import PipelineSpec
from repro.noise.presets import ALL_MODELS
from repro.qudits import Qudit
from repro.sim.density import DensityMatrixSimulator
from repro.sim.state import StateVector
from repro.sim.statevector import StateVectorSimulator
from repro.toffoli.registry import build_toffoli

from workloads import Request, build_circuit

#: Overlap a served state must reach with its reference.
STATE_TOLERANCE = 1e-6
#: Standard errors a trajectory estimate may sit from the exact value.
TRAJECTORY_SIGMAS = 5.0
#: Allowance for the density reference using one fixed Haar input
#: rather than the Haar average (spread across inputs is below 0.005
#: for every configuration in the workloads).
INPUT_SPREAD = 0.01
#: Pooled trials from which the estimates' own standard errors are
#: used; a smaller pool uses the worst case for values in [0, 1], since
#: a few short estimates can all miss the rare error trajectories and
#: report a tiny error.
MIN_POOLED_TRIALS = 200


@dataclass
class Compiled:
    """A request's circuit, compiled outside the path under test."""

    built: object
    logical: list[Qudit]
    circuit: object
    initial_placement: dict | None
    final_placement: dict | None


class Checker:
    """Memoised references; :meth:`check` returns an error or None."""

    def __init__(self) -> None:
        self._compiled: dict[tuple, Compiled] = {}
        self._fidelity: dict[tuple, float] = {}
        #: configuration -> run seed -> served FidelityEstimate.
        self._estimates: dict[tuple, dict] = {}
        self.dense = StateVectorSimulator(permutation_fast_path=False)

    def compiled(self, request: Request) -> Compiled:
        key = request.circuit_key
        if key not in self._compiled:
            built = build_circuit(request)
            circuit = getattr(built, "circuit", built)
            logical = (
                list(built.all_wires) if hasattr(built, "all_wires")
                else circuit.all_qudits()
            )
            initial = final = None
            if request.pipeline is not None:
                result = PipelineSpec.from_name(request.pipeline) \
                    .build().compile(circuit)
                for meta in result.pass_metadata:
                    if "final_placement" in meta:
                        initial = meta["initial_placement"]
                        final = meta["final_placement"]
                circuit = result.circuit
            self._compiled[key] = Compiled(built, logical, circuit,
                                           initial, final)
        return self._compiled[key]

    def check(self, request: Request, result) -> str | None:
        try:
            return getattr(self, f"_check_{request.family}")(
                request, result
            )
        except Exception as error:  # noqa: BLE001 - report, keep checking
            return f"check raised {error!r}"

    # -- families --------------------------------------------------------

    def _check_construction(self, request, result):
        compiled = self.compiled(request)
        built = compiled.built
        expected = _truth_table(built, request.build["inputs"])
        reference = StateVector.computational_basis(
            compiled.logical, expected
        ).tensor
        return self._compare_state(compiled, result, reference)

    def _check_interop(self, request, result):
        compiled = self.compiled(request)
        reference = self.dense.run(
            compiled.built, wires=compiled.logical
        ).tensor
        return self._compare_state(compiled, result, reference)

    def _check_truth_table(self, request, result):
        built = self.compiled(request).built
        n = request.build["num_controls"]
        expected = _truth_table(built, request.initial[:n + 1])
        if tuple(result.values) != tuple(expected):
            return f"values {result.values} != truth table {expected}"
        return None

    def _check_tree_shots(self, request, result):
        built = self.compiled(request).built
        n = request.build["num_controls"]
        expected = tuple(_truth_table(built, request.initial[:n + 1]))
        counts = result.measurements.counts()
        if dict(counts) != {expected: request.shots}:
            return f"counts {dict(counts)} != {{{expected}: {request.shots}}}"
        return None

    def _check_trajectory(self, request, result):
        """Shape only; the value is checked pooled, in
        :meth:`trajectory_problems`."""
        estimate = result.estimate
        if estimate is None or estimate.trials != request.trials:
            return "missing or mis-sized fidelity estimate"
        self._estimates.setdefault(configuration(request), {})[
            request.seed
        ] = estimate
        return None

    def trajectory_problems(self) -> dict[tuple, str]:
        """Configuration -> problem, for every trajectory configuration
        whose pooled estimate sits too far from the exact value.

        The estimates of one (construction, noise) configuration, one
        per distinct run seed, are pooled into a trials-weighted mean
        whose standard error comes from the estimates' own standard
        errors (from ``MIN_POOLED_TRIALS`` on), so a few hundred trials
        resolve a dropped noise rate that a single 20-40 trial estimate
        cannot.
        """
        problems = {}
        for key, by_seed in self._estimates.items():
            estimates = list(by_seed.values())
            trials = sum(e.trials for e in estimates)
            mean = sum(e.trials * e.mean_fidelity for e in estimates) / trials
            exact = self.exact_fidelity(key)
            if trials >= MIN_POOLED_TRIALS:
                error = math.sqrt(sum((e.trials * e.std_error) ** 2
                                      for e in estimates)) / trials
            else:
                error = math.sqrt(max(exact * (1.0 - exact), 0.0) / trials)
            tolerance = TRAJECTORY_SIGMAS * error + INPUT_SPREAD
            if abs(mean - exact) > tolerance:
                problems[key] = (
                    f"pooled fidelity {mean:.4f} over {trials} trials is "
                    f"more than {tolerance:.4f} from exact {exact:.4f}"
                )
        return problems

    def exact_fidelity(self, key: tuple) -> float:
        """The density engine's fidelity for one configuration."""
        if key not in self._fidelity:
            name, params, noise = key
            built = build_toffoli(name, **dict(params))
            wires = list(built.all_wires)
            probe = StateVector.random(
                wires, rng=np.random.default_rng(0),
                levels_per_wire={w: 2 for w in wires},
            )
            dim = math.prod(w.dimension for w in wires)
            simulator = DensityMatrixSimulator(ALL_MODELS[noise], max_dim=dim)
            self._fidelity[key] = simulator.mean_fidelity(built.circuit,
                                                          probe)
        return self._fidelity[key]

    # -- state comparison --------------------------------------------------

    def _compare_state(self, compiled: Compiled, result, reference):
        """Overlap of the served state with ``reference`` (logical wire
        order), after mapping logical wires to the wires they end on."""
        state = result.state
        served = list(state.wires)
        if served != list(compiled.circuit.all_qudits()) and \
                compiled.final_placement is not None:
            return "served wires differ from the compiled circuit's"
        if compiled.final_placement is None:
            site = {w: w for w in compiled.logical}
        else:
            # Inputs are prepared in-circuit, so every wire starts in
            # |0>: the initial placement only has to be a placement of
            # the same logical wires.
            if set(compiled.initial_placement) != set(compiled.logical):
                return "initial placement does not cover the wires"
            site = {
                w: Qudit(compiled.final_placement[w], w.dimension)
                for w in compiled.logical
            }
        position = {w: k for k, w in enumerate(served)}
        present = [w for w in compiled.logical if site[w] in position]
        kept = {position[site[w]] for w in present}
        tensor = state.tensor[tuple(
            slice(None) if k in kept else 0 for k in range(len(served))
        )]
        remaining = [k for k in range(len(served)) if k in kept]
        tensor = np.transpose(
            tensor, [remaining.index(position[site[w]]) for w in present]
        )
        reference = reference[tuple(
            slice(None) if w in present else 0 for w in compiled.logical
        )]
        overlap = abs(np.vdot(reference.ravel(), tensor.ravel())) ** 2
        if overlap < 1.0 - STATE_TOLERANCE:
            return f"state overlap {overlap:.8f} with the reference"
        return None


def shared_random_circuits(served, other) -> int:
    """Random Clifford+T circuits ``served`` shares with ``other``
    (another seed's requests), compared by circuit fingerprint."""

    def fingerprints(requests):
        return {circuit_fingerprint(build_circuit(r)) for r in requests
                if r.name == "clifford_t"}

    return len(fingerprints(served) & fingerprints(other))


def configuration(request: Request) -> tuple:
    """What a trajectory estimate's expected value depends on."""
    return (request.name, request.params, request.noise)


def _truth_table(built, inputs) -> list[int]:
    """Expected values over ``built.all_wires`` for data-wire ``inputs``."""
    n = built.spec.num_controls
    controls = list(inputs[:n])
    target = int(inputs[n]) ^ int(all(c == 1 for c in controls))
    ancillas = len(built.all_wires) - n - 1
    return controls + [target] + [0] * ancillas
