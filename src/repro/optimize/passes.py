"""The rewrite passes: cancellation, diagonal fusion, commutation packing.

Every pass rewrites one barrier segment at a time — an operation never
crosses a barrier — and reports how many local rewrites it applied.  The
engine (:mod:`repro.optimize.engine`) hands a pass its segments as
operation lists (:meth:`RewritePass.rewrite_segments`), prices the
rewritten lists, and keeps the rewrite only if the cost model approves,
so passes themselves can be greedy without risking regressions.

All three passes share the same commute-back walk: a candidate slides
left past predecessors it commutes with (diagonal gates glide through
the control side of CNOT-likes, disjoint gates are free) until it hits
a blocker — or, for cancellation and fusion, a partner.  This is what
turns "adjacent"-inverse cancellation into the phase-gadget-style
non-local rewrites of arXiv:2204.13681 without a dedicated gadget IR.
Each walk keeps the :class:`~repro.optimize.commutation.OpKey` of every
kept operation in a list beside its output, so a predecessor on other
wires costs one mask test (it still counts toward the window) and the
commutation check runs only where the wires overlap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import GateOperation
from ..exceptions import NotClassicalError
from ..gates.base import Gate, PhasedGate, index_to_values, values_to_index
from ..gates.intern import spec_id
from .commutation import OpKey, interned, keys_commute

#: How many predecessors the commute-back walk examines before giving
#: up.  Bounds every pass at O(ops * window) commutation queries; the
#: paper's constructions find their partners well within this horizon.
DEFAULT_WINDOW = 64


@dataclass
class PassStats:
    """What one pass invocation did to one circuit."""

    name: str
    applications: int = 0
    gates_removed: int = 0
    gates_fused: int = 0
    depth_before: int = 0
    depth_after: int = 0
    accepted: bool = False

    def to_dict(self) -> dict:
        return {
            "pass": self.name,
            "applications": self.applications,
            "gates_removed": self.gates_removed,
            "gates_fused": self.gates_fused,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "accepted": self.accepted,
        }

    def merged(self, other: "PassStats") -> "PassStats":
        """Accumulate ``other`` into a summary row (same pass name)."""
        return replace(
            self,
            applications=self.applications + other.applications,
            gates_removed=self.gates_removed + other.gates_removed,
            gates_fused=self.gates_fused + other.gates_fused,
            depth_after=other.depth_after,
            accepted=self.accepted or other.accepted,
        )


class RewritePass(ABC):
    """One rewrite rule, applied segment-wise under barrier floors.

    :meth:`rewrite_segment` must be a deterministic function of its
    input operations: the engine skips a pass whose input is the very
    segments it last ran on (nothing was accepted since) and reuses
    that run's :class:`PassStats`, which is only sound if a re-run would
    return the same rewrite.
    """

    #: Registry name (also the CLI ``--passes`` token).
    name: str = "rewrite"

    #: True for passes whose applications merge gates (stats tagging).
    counts_fusions: bool = False

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self.window = window

    @abstractmethod
    def rewrite_segment(
        self, ops: list[GateOperation]
    ) -> tuple[list[GateOperation], int]:
        """Rewrite one barrier segment's operations (schedule order).

        Returns the replacement operation list and the number of local
        rewrites applied (0 = segment untouched).
        """

    def rewrite_segments(
        self, segments: list[list[GateOperation]]
    ) -> tuple[list[list[GateOperation]], PassStats]:
        """Rewrite every segment's operation list; returns the new lists
        and the counts (the depths are left for the caller to fill)."""
        stats = PassStats(name=self.name)
        rewritten = []
        for ops in segments:
            new_ops, applied = self.rewrite_segment(ops)
            stats.applications += applied
            stats.gates_removed += max(0, len(ops) - len(new_ops))
            if self.counts_fusions:
                stats.gates_fused += applied
            rewritten.append(new_ops)
        return rewritten, stats

    def run(self, circuit: Circuit) -> tuple[Circuit, PassStats]:
        """Apply the pass across all barrier segments of ``circuit``.

        With zero applications the input circuit is returned unchanged
        (same object), so no-op passes can never perturb scheduling.
        """
        replacements, stats = self.rewrite_segments([
            [op for moment in segment for op in moment]
            for segment in circuit.barrier_segments()
        ])
        stats.depth_before = stats.depth_after = circuit.depth
        if stats.applications == 0:
            return circuit, stats
        rewritten = circuit.with_replaced_moments(
            replacements, preserve_floors=True
        )
        stats.depth_after = rewritten.depth
        return rewritten, stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


# ---------------------------------------------------------------------------
# Shared gate analyses, cached on canonical spec ids
# ---------------------------------------------------------------------------

#: spec id -> True iff the gate is the identity.
_IDENTITY_IDS: dict[int, bool] = {}


def _is_identity(gate: Gate, gate_id: int) -> bool:
    cached = _IDENTITY_IDS.get(gate_id)
    if cached is None:
        phases = gate.diagonal_phases()
        if phases is not None:
            cached = bool(np.allclose(phases, 1.0, atol=1e-9))
        else:
            try:
                cached = gate.permutation() == list(range(gate.total_dim))
            except NotClassicalError:
                cached = False
        _IDENTITY_IDS[gate_id] = cached
    return cached


def is_inverse_pair(first: Gate, second: Gate) -> bool:
    """True iff ``first`` then ``second`` compose to the identity.

    Decided on canonical specs: the registry's semantic inverse rules
    make e.g. ``RX(t)``/``RX(-t)`` and ``T``/``T_DAG`` compare
    exactly, and structurally built daggers (the Barenco CV/CV† pairs)
    match because both sides are the same conjugate-transpose
    arithmetic.
    """
    if first.dims != second.dims:
        return False
    return spec_id(second) == spec_id(first.inverse())


def is_identity_gate(gate: Gate) -> bool:
    """True iff the gate acts as the identity on its wires."""
    return _is_identity(gate, spec_id(gate))


# ---------------------------------------------------------------------------
# Pass 1: adjacent-inverse cancellation
# ---------------------------------------------------------------------------


class CancelAdjacentInverses(RewritePass):
    """Remove ``g . g^-1`` pairs (and identity gates) within segments.

    The left operand need not be literally adjacent: the right operand
    commutes back through the window until it meets either its inverse
    on the same wires (cancel both) or a blocker (keep it).  Removing a
    pair can expose a new pair around the hole, which the processed-list
    representation handles naturally — the next candidate walks through
    the closed gap.
    """

    name = "cancel-inverses"

    def rewrite_segment(
        self, ops: list[GateOperation]
    ) -> tuple[list[GateOperation], int]:
        out: list[GateOperation] = []
        keys: list[OpKey] = []  # keys[i] is interned(out[i])
        applied = 0
        for op in ops:
            key = interned(op)
            if _is_identity(op.gate, key.spec):
                applied += 1
                continue
            mask = key.mask
            position = len(out)
            cancelled = False
            steps = 0
            while position > 0 and steps < self.window:
                prev_key = keys[position - 1]
                if prev_key.mask & mask:
                    prev = out[position - 1]
                    if prev_key.wires == key.wires and spec_id(
                        prev.gate.inverse()
                    ) == key.spec:
                        del out[position - 1]
                        del keys[position - 1]
                        applied += 1
                        cancelled = True
                        break
                    if not keys_commute(prev, prev_key, op, key):
                        break
                position -= 1
                steps += 1
            if not cancelled:
                out.append(op)
                keys.append(key)
        return out, applied


# ---------------------------------------------------------------------------
# Pass 2: diagonal / phase gate fusion
# ---------------------------------------------------------------------------


def _reordered_phases(
    phases: np.ndarray,
    source: Sequence,
    destination: Sequence,
) -> np.ndarray:
    """Re-index a phase vector from ``source`` wire order to ``destination``."""
    if tuple(source) == tuple(destination):
        return phases
    source_dims = [w.dimension for w in source]
    dest_dims = [w.dimension for w in destination]
    slot = {wire: k for k, wire in enumerate(source)}
    out = np.empty_like(phases)
    for index in range(len(phases)):
        values = index_to_values(index, dest_dims)
        source_values = [0] * len(source)
        for k, wire in enumerate(destination):
            source_values[slot[wire]] = values[k]
        out[index] = phases[values_to_index(source_values, source_dims)]
    return out


class FuseDiagonalGates(RewritePass):
    """Merge diagonal gates on the same wires into one phase gate.

    Runs of same-wire diagonal gates — consecutive T's, controlled-phase
    chains, the rotation tails of the cascades — collapse into a single
    :class:`PhasedGate` whose diagonal is the product, the phase-gadget
    fusion of arXiv:2204.13681.  The partner hunt commutes back through
    the window (diagonal gates pass freely over each other and over the
    control side of controlled gates), and a fusion whose product is the
    identity drops the gate entirely.
    """

    name = "fuse-phases"
    counts_fusions = True

    def rewrite_segment(
        self, ops: list[GateOperation]
    ) -> tuple[list[GateOperation], int]:
        out: list[GateOperation] = []
        keys: list[OpKey] = []  # keys[i] is interned(out[i])
        applied = 0
        for op in ops:
            key = interned(op)
            if not key.diagonal:
                out.append(op)
                keys.append(key)
                continue
            mask = key.mask
            position = len(out)
            partner = None
            steps = 0
            while position > 0 and steps < self.window:
                prev_key = keys[position - 1]
                if prev_key.mask & mask:
                    if prev_key.mask == mask and prev_key.diagonal:
                        partner = position - 1
                        break
                    if not keys_commute(
                        out[position - 1], prev_key, op, key
                    ):
                        break
                position -= 1
                steps += 1
            if partner is None:
                out.append(op)
                keys.append(key)
                continue
            merged = self._fuse(
                out[partner], op, op.gate.diagonal_phases()
            )
            applied += 1
            if merged is None:
                del out[partner]
                del keys[partner]
            else:
                out[partner] = merged
                keys[partner] = interned(merged)
        return out, applied

    @staticmethod
    def _fuse(
        prev_op: GateOperation,
        op: GateOperation,
        phases: np.ndarray,
    ) -> GateOperation | None:
        prev_phases = prev_op.gate.diagonal_phases()
        assert prev_phases is not None
        merged = prev_phases * _reordered_phases(
            phases, op.qudits, prev_op.qudits
        )
        if np.allclose(merged, 1.0, atol=1e-9):
            return None
        dims = tuple(w.dimension for w in prev_op.qudits)
        gate = PhasedGate(merged, dims, name=f"Phi{len(merged)}")
        return gate.on(*prev_op.qudits)


# ---------------------------------------------------------------------------
# Pass 3: commutation-aware depth packing
# ---------------------------------------------------------------------------


class CommutationPacking(RewritePass):
    """Reorder commuting operations so ASAP scheduling packs tighter.

    Each operation slides to the earliest list position its pairwise
    commutations allow; the segment is then ASAP-rescheduled (the
    engine's pricing, or ``with_replaced_moments`` in :meth:`run`),
    which is where the depth reduction
    materialises (a diagonal gate stuck behind a long CNOT chain on its
    control wire jumps to the front and fills an idle moment).  The
    engine's cost gate rejects reorderings that do not actually reduce
    the score, so a pure shuffle never survives.
    """

    name = "pack-commuting"

    def rewrite_segment(
        self, ops: list[GateOperation]
    ) -> tuple[list[GateOperation], int]:
        out: list[GateOperation] = []
        keys: list[OpKey] = []  # keys[i] is interned(out[i])
        applied = 0
        for op in ops:
            key = interned(op)
            mask = key.mask
            position = len(out)
            steps = 0
            while position > 0 and steps < self.window:
                prev_key = keys[position - 1]
                if prev_key.mask & mask and not keys_commute(
                    out[position - 1], prev_key, op, key
                ):
                    break
                position -= 1
                steps += 1
            if position < len(out):
                out.insert(position, op)
                keys.insert(position, key)
                applied += 1
            else:
                out.append(op)
                keys.append(key)
        return out, applied


# ---------------------------------------------------------------------------
# Pass registry
# ---------------------------------------------------------------------------

PASS_TYPES: dict[str, type[RewritePass]] = {
    CancelAdjacentInverses.name: CancelAdjacentInverses,
    FuseDiagonalGates.name: FuseDiagonalGates,
    CommutationPacking.name: CommutationPacking,
}

#: Default pass order: shrink first (cancellation exposes fusions and
#: vice versa — the fixpoint loop alternates them), pack depth last.
DEFAULT_PASS_NAMES = (
    CancelAdjacentInverses.name,
    FuseDiagonalGates.name,
    CommutationPacking.name,
)


def resolve_passes(
    passes: "Sequence[str | RewritePass] | None",
) -> list[RewritePass]:
    """Accept pass instances, registered names, or None (the default set)."""
    if passes is None:
        passes = DEFAULT_PASS_NAMES
    resolved: list[RewritePass] = []
    for item in passes:
        if isinstance(item, RewritePass):
            resolved.append(item)
            continue
        try:
            resolved.append(PASS_TYPES[item]())
        except KeyError:
            raise ValueError(
                f"unknown optimizer pass {item!r}; known: "
                f"{sorted(PASS_TYPES)}"
            ) from None
    return resolved
