"""Seeded request generation for the three benchmark workloads.

A :class:`Request` is plain data: which circuit to build, which
registered pipeline to compile it with, and the run options.  The
benchmark turns it into ``JobQueue.submit`` arguments with
:func:`submit_args`; the program under test only ever sees those
arguments, never the seed.

Seeds.  Every random choice is drawn from ``numpy.random.default_rng``
keyed on the workload seed, so one seed gives one request list.  Any
integer is accepted on the command line and folded into
``[0, SEED_LIMIT)`` by :func:`workload_seed`.  Seeded circuits and run
seeds use ``seed * STRIDE + position``, so two workload seeds never
share a random Clifford+T circuit, a shot seed or a trajectory seed.
Warm-up requests use seeds from ``WARMUP_SEED`` up, which no timed
request reaches.

Pipelines are named through :meth:`PipelineSpec.from_name`, so every
request carries a :class:`PipelineSpec` object (never a pipeline string).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.circuits.circuit import Circuit
from repro.execution.pipeline_spec import PipelineSpec
from repro.gates.qutrit import level_swap
from repro.interop.workloads import (
    qft_circuit,
    random_clifford_t,
    ripple_carry_adder,
)
from repro.noise.presets import ALL_MODELS
from repro.service.loadgen import zipf_workload
from repro.toffoli.registry import build_toffoli

#: Workload seeds are folded into ``[0, SEED_LIMIT)``.
SEED_LIMIT = 1 << 32
#: Position stride of derived seeds (larger than any request list).
STRIDE = 100_003
#: First seed used by warm-up requests (above every derived timed seed,
#: which stay below ``SEED_LIMIT * STRIDE`` < 2^49).
WARMUP_SEED = 1 << 60
#: First circuit seed of compile-cold's fixed reference Clifford+T
#: circuits (above every derived seed and every warm-up seed).
REFERENCE_SEED = 1 << 61


def workload_seed(seed: int) -> int:
    """The command-line seed folded into ``[0, SEED_LIMIT)``."""
    return seed % SEED_LIMIT

#: The Fig. 9/10 constructions compile-cold draws from.
CONSTRUCTIONS = ("qubit_ancilla_free", "qubit_one_dirty", "he_tree",
                 "qutrit_tree")
#: Registered hardware pipelines (heavy-hex is left out: it spreads
#: 8-wire circuits over 14-16 sites and run time then swings by seed).
HARDWARE = ("hardware-grid-opt", "hardware-line-opt")



def clifford_t(n: int, depth: int, circuit_seed: int) -> Circuit:
    """``random_clifford_t`` with its seed renamed: ``submit`` keeps
    ``seed`` for the run, and passes other keywords to the builder."""
    return random_clifford_t(n, depth, seed=circuit_seed)


INTEROP_FACTORIES = {
    "qft": qft_circuit,
    "adder": ripple_carry_adder,
    "clifford_t": clifford_t,
}

#: Length of each generated request stream; a run consumes a prefix.
STREAM_LENGTH = 4000
#: compile-cold blocks (40 requests, then 30 each); a run completes a
#: few hundred requests at most, and N=4 shapes have only 31 distinct
#: inputs besides the reference one.
COLD_BLOCKS = 20


@dataclass(frozen=True)
class Request:
    """One request, as the benchmark's client sends it."""

    #: "construction" (statevector, input prepared in-circuit),
    #: "interop", "truth_table" (classical backend), "tree_shots"
    #: (statevector with a basis input and shots) or "trajectory".
    family: str
    #: Construction or interop factory name.
    name: str
    #: Builder keyword arguments as sorted ``(key, value)`` pairs.
    params: tuple
    #: Registered pipeline name, or None to run the built circuit.
    pipeline: str | None = None
    backend: str = "statevector"
    noise: str | None = None
    initial: tuple | None = None
    shots: int | None = None
    trials: int | None = None
    seed: int | None = None

    @property
    def build(self) -> dict:
        return dict(self.params)

    @property
    def circuit_key(self) -> tuple:
        """What determines the compiled circuit (not the run options)."""
        return (self.family, self.name, self.params, self.pipeline,
                self.backend)


def prepared_construction(name: str, num_controls: int, inputs: tuple):
    """A construction whose data wires start in the basis state ``inputs``.

    The input is prepared in-circuit by a layer of level swaps (X on
    qubits, X01 on qutrits) in front of the construction, so a routed
    circuit needs no knowledge of its physical placement to start in a
    chosen input, and each input gives a distinct circuit to compile.
    """
    built = build_toffoli(name, num_controls)
    data = list(built.controls) + [built.target]
    prep = Circuit([
        level_swap(wire.dimension, 0, 1).on(wire)
        for wire, bit in zip(data, inputs)
        if bit
    ])
    return replace(built, circuit=prep + built.circuit)


def build_circuit(request: Request):
    """The request's uncompiled target, built outside the queue.

    Returns a ``ConstructionResult`` for constructions and a ``Circuit``
    for interop circuits — what ``materialize_target`` builds inside
    ``submit``.
    """
    if request.family == "construction":
        return prepared_construction(request.name, **request.build)
    if request.family == "interop":
        return INTEROP_FACTORIES[request.name](**request.build)
    decompose = {"decompose": False} if request.family == "truth_table" \
        else {}
    return build_toffoli(request.name, **request.build, **decompose)


def submit_args(request: Request) -> dict:
    """Keyword arguments of ``JobQueue.submit`` for one request.

    Named constructions go in by registry name with builder keywords,
    as the serve protocol sends them; prepared constructions and interop
    circuits go in as builder callables, so the build still happens
    inside ``submit``.
    """
    if request.family == "construction":
        target = partial(prepared_construction, request.name)
    elif request.family == "interop":
        target = INTEROP_FACTORIES[request.name]
    else:
        target = request.name
    return dict(
        target=target,
        backend=request.backend,
        pipeline=(
            PipelineSpec.from_name(request.pipeline)
            if request.pipeline is not None else None
        ),
        noise_model=(
            ALL_MODELS[request.noise] if request.noise is not None else None
        ),
        initial=request.initial,
        shots=request.shots,
        trials=request.trials,
        seed=request.seed,
        **request.build,
    )


def _params(**kwargs) -> tuple:
    return tuple(sorted(kwargs.items()))


def construction(name, num_controls, inputs, pipeline=None) -> Request:
    return Request("construction", name,
                   _params(num_controls=num_controls, inputs=tuple(inputs)),
                   pipeline=pipeline)


def interop(name, pipeline, **params) -> Request:
    return Request("interop", name, _params(**params), pipeline=pipeline)


def _active_inputs(num_controls: int) -> tuple:
    """Every control active, target 0: the target must flip."""
    return (1,) * num_controls + (0,)


# -- compile-cold --------------------------------------------------------


def compile_cold_reference() -> list[Request]:
    """The seed-independent part of compile-cold.

    Every construction at N 4-6 (all controls active), the interop
    QFT/adder, each through both hardware pipelines, and one random
    Clifford+T circuit of each shape at a fixed circuit seed.  These
    requests sit in every compile-cold stream, and
    ``compiled_two_qudit_gates`` / ``compiled_depth`` are summed over
    them, so those two metrics do not depend on the seed and still
    cover the generic Clifford+T traffic.
    """
    requests = [
        construction(name, n, _active_inputs(n), pipeline)
        for pipeline in HARDWARE
        for name in CONSTRUCTIONS
        for n in (4, 5, 6)
    ]
    requests += [
        interop("qft", pipeline, n=n)
        for pipeline in HARDWARE for n in (4, 5, 6)
    ]
    requests += [
        interop("adder", pipeline, n=n)
        for pipeline in HARDWARE for n in (2, 3)
    ]
    requests += _clifford_t_block(0, lambda k: REFERENCE_SEED + k)
    return requests


def _clifford_t_block(block: int, circuit_seed) -> list[Request]:
    """The six random Clifford+T shapes of one block: 6-8 qubits x both
    pipelines, with depths 150-400 rotated by ``block``."""
    shapes = [(q, p) for q in (6, 7, 8) for p in HARDWARE]
    return [
        interop("clifford_t", pipeline, n=qubits,
                depth=CLIFFORD_T_DEPTHS[(k + block) % len(shapes)],
                circuit_seed=circuit_seed(k))
        for k, (qubits, pipeline) in enumerate(shapes)
    ]


def _random_inputs(rng, num_controls: int) -> tuple:
    """Seeded data-wire input; all controls active a quarter of the time."""
    if rng.random() < 0.25:
        controls = [1] * num_controls
    else:
        controls = [int(b) for b in rng.integers(0, 2, num_controls)]
    return tuple(controls) + (int(rng.integers(0, 2)),)


#: Random Clifford+T depths; block ``b`` pairs them with the six
#: (qubits, pipeline) shapes rotated by ``b``.
CLIFFORD_T_DEPTHS = (150, 200, 250, 300, 350, 400)


def compile_cold(seed: int) -> list[Request]:
    """One closed-loop client; every request distinct within the stream.

    The stream is blocks with one fixed mix of circuit shapes, so every
    seed sends the same mix and compile costs (which differ by 30x
    between shapes) do not move with the seed.  Block 0 is the
    reference set, whose six Clifford+T circuits have fixed seeds; every
    later block is the 24 construction shapes (4 constructions x N 4-6 x
    2 pipelines) with fresh seeded inputs plus six Clifford+T circuits
    (6-8 qubits x 2 pipelines, 150-400 gates) with derived seeds.  The
    seed orders each block and draws the inputs and the circuit seeds.
    """
    rng = np.random.default_rng([seed, 1])
    reference = compile_cold_reference()
    seen = {r.circuit_key for r in reference}
    stream: list[Request] = []
    for block in range(COLD_BLOCKS):
        if block == 0:
            items = list(reference)
        else:
            items = []
            for pipeline in HARDWARE:
                for name in CONSTRUCTIONS:
                    for n in (4, 5, 6):
                        request = reference[0]
                        while request.circuit_key in seen:
                            request = construction(
                                name, n, _random_inputs(rng, n), pipeline
                            )
                        seen.add(request.circuit_key)
                        items.append(request)
            first = 6 * (block - 1)
            items += _clifford_t_block(
                block, lambda k: seed * STRIDE + first + k
            )
        stream += [items[k] for k in rng.permutation(len(items))]
    return stream


def compile_cold_warmup() -> list[Request]:
    """Disjoint from every timed request: N=3 and warm-up seeds."""
    requests = [construction(name, 3, _active_inputs(3), pipeline)
                for pipeline in HARDWARE for name in CONSTRUCTIONS]
    requests += [interop("qft", pipeline, n=3) for pipeline in HARDWARE]
    requests += [interop("adder", pipeline, n=1) for pipeline in HARDWARE]
    requests += [
        interop("clifford_t", pipeline, n=6, depth=150,
                circuit_seed=WARMUP_SEED + k)
        for k, pipeline in enumerate(HARDWARE)
    ]
    return requests


# -- sim-heavy -----------------------------------------------------------

#: Fig. 11 trajectory configurations: (construction, noise, trials).
#: Trials are sized for roughly 100-250 ms per request.
TRAJECTORY_CONFIGS = (
    ("qutrit_tree", "SC", 40),
    ("qubit_ancilla_free", "SC", 20),
    ("qutrit_tree", "SC+T1+GATES", 40),
    ("qubit_ancilla_free", "SC+T1+GATES", 20),
)
#: Basis-input widths.  N=11 is left out: its 3^12-amplitude state is
#: serialized into every response and every store entry, which costs
#: about four times its engine run.
TREE_WIDTHS = (9, 10)
SHOTS = 1000


def tree_shots(num_controls: int, inputs: tuple, seed: int) -> Request:
    return Request(
        "tree_shots", "qutrit_tree", _params(num_controls=num_controls),
        pipeline="lowering", initial=tuple(inputs), shots=SHOTS, seed=seed,
    )


def trajectory(name: str, noise: str, trials: int, seed: int,
               num_controls: int = 5) -> Request:
    return Request(
        "trajectory", name, _params(num_controls=num_controls),
        backend="trajectory", noise=noise, trials=trials, seed=seed,
    )


#: One sim-heavy cycle: None is a basis-input run with shots (N
#: alternating over :data:`TREE_WIDTHS`), an int indexes
#: :data:`TRAJECTORY_CONFIGS`.  The slow ``qubit_ancilla_free``
#: trajectories are half the requests so that the median falls inside
#: their group rather than at the edge between two groups.
SIM_CYCLE = (None, 0, 1, 3, None, 2, 1, 3)


def sim_heavy(seed: int) -> list[Request]:
    """One closed-loop client cycling through :data:`SIM_CYCLE`.

    A statevector result carries the full final state even when shots
    are asked for, so a 3^10-3^11 amplitude request spends more time in
    serialization and the store write than in the engine; trajectories
    are three in four requests so that the engine holds most of the
    request time.  The all-zero input is reserved for warm-up.
    """
    rng = np.random.default_rng([seed, 2])
    stream = []
    for position in range(STREAM_LENGTH):
        derived = seed * STRIDE + position
        config = SIM_CYCLE[position % len(SIM_CYCLE)]
        if config is None:
            n = TREE_WIDTHS[(position // 4) % len(TREE_WIDTHS)]
            inputs = (0,) * (n + 1)
            while not any(inputs):
                inputs = _random_inputs(rng, n)
            stream.append(tree_shots(n, inputs, derived))
        else:
            name, noise, trials = TRAJECTORY_CONFIGS[config]
            stream.append(trajectory(name, noise, trials, derived))
    return stream


def sim_heavy_reference() -> list[Request]:
    """One request per distinct sim-heavy circuit (seed-independent)."""
    return [tree_shots(n, (1,) * (n + 1), 0) for n in TREE_WIDTHS] + [
        trajectory(name, noise, trials, 0)
        for name, noise, trials in TRAJECTORY_CONFIGS
    ]


def sim_heavy_warmup() -> list[Request]:
    requests = [tree_shots(n, (0,) * (n + 1), WARMUP_SEED + n)
                for n in TREE_WIDTHS]
    requests += [
        trajectory(name, noise, 4, WARMUP_SEED + k)
        for k, (name, noise, _) in enumerate(TRAJECTORY_CONFIGS)
    ]
    return requests


# -- serve-hot -----------------------------------------------------------

#: Zipf exponent of serve-hot popularity.
ZIPF_S = 1.1
#: In-memory LRU size for serve-hot, below the catalog's distinct count,
#: so the evicted tail is served from the result store.
SERVE_CACHE_ENTRIES = 24


#: serve-hot catalog in popularity order (rank 0 first), as
#: (construction, N, pipeline) for statevector constructions with every
#: control active, ("truth", name, N) for classical truth-table runs and
#: ("noisy", N, noise) for seeded qutrit_tree trajectories.  The order is
#: fixed so that every seed sees one cost mix, and chosen so that p50 and
#: p90 each fall inside a group of similar-cost requests: the head is
#: small hardware-compiled trees (every hit still recompiles them), the
#: 90th percentile sits among the N=4 hardware-compiled qubit
#: constructions, and the N=5 ones are rare.
_SERVE_RANKS = (
    ("qutrit_tree", 3, "hardware-line-opt"),
    ("qutrit_tree", 3, "hardware-grid-opt"),
    ("qutrit_tree", 4, "hardware-line-opt"),
    ("truth", "qutrit_tree", 4),
    ("qutrit_tree", 3, None),
    ("qubit_one_dirty", 4, "hardware-line-opt"),
    ("qubit_ancilla_free", 4, "hardware-line-opt"),
    ("qubit_one_dirty", 4, "hardware-grid-opt"),
    ("qubit_ancilla_free", 4, "hardware-grid-opt"),
    ("noisy", 3, "SC"),
    ("he_tree", 3, None),
    ("truth", "qubit_one_dirty", 4),
    ("qubit_one_dirty", 3, None),
    ("noisy", 3, "SC+T1+GATES"),
    ("he_tree", 4, None),
    ("truth", "he_tree", 4),
    ("qubit_ancilla_free", 3, "hardware-line-opt"),
    ("qubit_ancilla_free", 3, None),
    ("qutrit_tree", 4, None),
    ("qubit_one_dirty", 3, "hardware-line-opt"),
    ("truth", "qutrit_tree", 5),
    ("qutrit_tree", 4, "hardware-grid-opt"),
    ("qubit_ancilla_free", 3, "hardware-grid-opt"),
    ("he_tree", 5, None),
    ("qubit_one_dirty", 3, "hardware-grid-opt"),
    ("noisy", 4, "SC"),
    ("qutrit_tree", 5, "hardware-line-opt"),
    ("qubit_one_dirty", 4, None),
    ("qutrit_tree", 5, "hardware-grid-opt"),
    ("truth", "qubit_one_dirty", 5),
    ("qubit_ancilla_free", 5, None),
    ("noisy", 4, "SC+T1+GATES"),
    ("qubit_ancilla_free", 4, None),
    ("qubit_one_dirty", 5, "hardware-line-opt"),
    ("qubit_ancilla_free", 5, "hardware-line-opt"),
    ("qubit_one_dirty", 5, "hardware-grid-opt"),
    ("qubit_ancilla_free", 5, "hardware-grid-opt"),
    ("truth", "he_tree", 5),
    ("qutrit_tree", 5, None),
    ("qubit_one_dirty", 5, None),
)


def serve_catalog() -> list[Request]:
    """The fixed serve-hot catalog, most popular first.

    Constructions at N 3-5 with no pipeline and through both hardware
    pipelines, classical truth-table runs and seeded trajectory runs;
    see :data:`_SERVE_RANKS` for the order.  The seed only draws the
    request sequence.
    """
    catalog = []
    for entry in _SERVE_RANKS:
        if entry[0] == "truth":
            _, name, n = entry
            catalog.append(Request(
                "truth_table", name, _params(num_controls=n),
                backend="classical", initial=_truth_input(name, n),
            ))
        elif entry[0] == "noisy":
            _, n, noise = entry
            catalog.append(
                trajectory("qutrit_tree", noise, 20, 2019, num_controls=n)
            )
        else:
            name, n, pipeline = entry
            catalog.append(
                construction(name, n, _active_inputs(n), pipeline)
            )
    return catalog


def _truth_input(name: str, num_controls: int) -> tuple:
    """Classical input over ``all_wires``: controls active, target and
    ancillas 0."""
    wires = build_toffoli(name, num_controls, decompose=False).all_wires
    return _active_inputs(num_controls) + (0,) * (
        len(wires) - num_controls - 1
    )


#: serve-hot requests are sent in blocks of this many; every block holds
#: the same zipfian draw (``zipf_workload`` with ``BLOCK_DRAW_SEED``) and
#: the workload seed shuffles each block.  Every run then sends the same
#: mix of requests, whose costs differ by 500x, and only their order
#: depends on the seed.
SERVE_BLOCK = 200
BLOCK_DRAW_SEED = 2019


def serve_hot(seed: int) -> list[Request]:
    """The zipfian request sequence over :func:`serve_catalog`."""
    catalog = serve_catalog()
    block = zipf_workload(len(catalog), SERVE_BLOCK, s=ZIPF_S,
                          seed=BLOCK_DRAW_SEED)
    rng = np.random.default_rng([seed, 3])
    stream = []
    while len(stream) < STREAM_LENGTH:
        stream += [catalog[block[k]] for k in rng.permutation(SERVE_BLOCK)]
    return stream


def serve_hot_warmup() -> list[Request]:
    """One catalog entry per (family, pipeline), with warm-up seeds for
    the noisy one, through a throwaway queue."""
    picked = {}
    for request in serve_catalog():
        picked.setdefault((request.family, request.pipeline), request)
    return [
        replace(r, seed=WARMUP_SEED) if r.family == "trajectory" else r
        for r in picked.values()
    ]
