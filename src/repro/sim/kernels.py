"""Precomputed contraction kernels for the axis-local simulation engines.

The noise engine applies the same few operators thousands of times: every
gate of a construction repeats across moments and trajectories, and every
noise channel is drawn from a small cached family (depolarizing per
dimension pair, amplitude damping per ``(dim, duration)``, dephasing).
This module turns each of those operators into a *kernel* — the matrix
pre-reshaped into tensor-leg form, with its conjugate — exactly once, and
hands the cached kernel to every subsequent application.

Tensor leg convention (shared with :class:`~repro.sim.state.StateVector`
and :class:`~repro.sim.density.DensityTensor`):

* an operator on wires of dimensions ``(d_0, ..., d_{k-1})`` is stored as
  a tensor of shape ``(d_0, ..., d_{k-1}, d_0, ..., d_{k-1})`` — the
  first ``k`` legs are *output* (row) legs, the last ``k`` are *input*
  (column) legs;
* ``np.tensordot(block, state, axes=(input_legs, touched_axes))``
  contracts the input legs against the touched axes of a state tensor
  and leaves the output legs at the front, which callers move back into
  place with ``np.moveaxis``.

Both state-vector engines apply gates through one planner,
:class:`GatePlan`, which turns each gate into one of four steps that
:func:`apply_steps` runs:

* a run of permutation gates composes into one full-register *gather*
  (below);
* a diagonal gate needs no contraction at all: :func:`diagonal_factor`
  turns it into one in-place *multiply* of its phase tensor, broadcast
  onto its axes (a controlled phase: onto its control block).  The
  verdict and the phases are read off the matrix a gate kernel or
  control block is built from, so they cost no extra ``unitary()``;
* a dense :class:`~repro.gates.controlled.ControlledGate` (one whose
  sub-gate is not a permutation) is the identity except on one *control
  block*: the slice where every control wire holds its activation
  value.  Only the sub-gate's block is applied to that slice, in place,
  instead of contracting the whole ``dims + dims`` kernel against the
  register — the lowered qutrit tree's ``X±1`` roots under a control
  take this path;
* every other gate contracts its *dense* kernel block.

The plan also owns the segment rule that decides where gathers end; see
:class:`GatePlan`.

The classical engines have their own kernel family: a *permutation
kernel* is the gate's whole-domain basis permutation lowered to a flat
``int64`` lookup table over the mixed-radix index of its wires (plus the
encode weights), or an explicit "not a permutation" marker when the gate
is not classical.  Lowering inspects the full action — never a probe at
one input — so kernel-level classicality is exact, and the batched
classical engine advances thousands of basis states per gate with one
table gather.

The state-vector engines lift a permutation kernel to a *gather*:
full-register ``int64`` indices that move every amplitude in one
fancy-indexing pass.  Two LRU caches keep gathers, for registers of up
to :data:`_GATHER_MAX_ENTRIES` amplitudes only:

* the per-placement cache holds one gather per (gate, axes, register
  shape) that a single-op application met (:func:`permutation_gather`);
* the segment cache holds one composed gather per run of consecutive
  permutation ops, entered on its first sighting
  (:func:`segment_permutation_gather`).  A run that misses it is
  composed from the per-placement gathers its steps already have; a
  step without one is built for that composition and not kept.

Cache keys:

* gate kernels, control sub-blocks, permutation kernels and gathers
  are keyed on the gate's (or sub-gate's) **id**
  (:func:`repro.gates.intern.spec_id`: one process-local int per
  canonical spec, cached on the gate), so two structurally equal gates
  share one kernel no matter how they were built, and a lookup hashes
  an int instead of a spec tree;
* channel kernels are keyed on the channel *instance*.  The channel
  factories in :mod:`repro.noise` are ``lru_cache``-d singletons, so this
  is equivalent to keying on the channel's parameters; hand-built
  channels get their own entry (weakly referenced, so they can still be
  collected).
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..circuits.operation import GateOperation
from ..exceptions import NotClassicalError
from ..gates.base import values_to_index
from ..gates.controlled import ControlledGate
from ..gates.intern import (
    clear_interned_gates,
    interned_gate_count,
    spec_id,
)
from ..noise.kraus import KrausChannel, UnitaryMixtureChannel


@dataclass(frozen=True)
class GateKernel:
    """One gate's unitary in contraction-ready tensor form."""

    #: Wire dimensions, in gate order.
    dims: tuple[int, ...]
    #: The unitary reshaped to ``dims + dims`` (output legs first).
    block: np.ndarray
    #: ``block.conj()`` — contracted against density column legs.
    conj_block: np.ndarray
    #: The unitary's diagonal as a ``dims``-shaped phase tensor when
    #: every off-diagonal entry is exactly zero, else None.
    phases: np.ndarray | None = None


@dataclass(frozen=True)
class ChannelKernel:
    """One channel's Kraus operators in contraction-ready tensor form.

    Unitary-mixture channels are lowered to explicit Kraus form here:
    ``sqrt(1 - p_total) * I`` plus ``sqrt(p_i) * E_i`` for every branch
    with non-zero probability.  The density engine then treats both
    channel families uniformly as ``rho -> sum_i K_i rho K_i^dag``.
    """

    #: Wire dimensions, in channel order.
    dims: tuple[int, ...]
    #: Kraus operators reshaped to ``dims + dims`` (output legs first).
    blocks: tuple[np.ndarray, ...]
    #: Conjugated blocks, for the column-leg side of the contraction.
    conj_blocks: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PermutationKernel:
    """One classical gate's basis permutation in table-gather form.

    ``table[i] = j`` means joint basis state ``i`` maps to ``j``, where
    ``i`` is the mixed-radix encoding of the gate's wire values (first
    wire most significant).  ``weights`` are the per-wire encode factors:
    ``index = values @ weights`` and ``values[k] = index // weights[k]
    % dims[k]`` — precomputed so the batched classical engine encodes and
    decodes whole ``(B, k)`` blocks with vectorized arithmetic.

    ``inverse`` is the inverse permutation (``inverse[table[i]] = i``).
    The state-vector fast path moves amplitudes by *gathering*:
    ``psi'[j] = psi[inverse[j]]`` is one fancy-indexing pass, where the
    forward table would need a scatter.

    ``table is None`` marks a gate that is *not* a basis permutation.
    Lowering decides this from the gate's whole-domain action, so the
    kernel is also the single source of truth for circuit classicality
    (no probing at selected inputs).
    """

    #: Wire dimensions, in gate order.
    dims: tuple[int, ...]
    #: Flat joint-index lookup table, or None for non-permutation gates.
    table: np.ndarray | None
    #: Mixed-radix encode weights (``weights[k] = prod(dims[k+1:])``).
    weights: np.ndarray
    #: Inverse permutation (gather form), or None for non-permutations.
    inverse: np.ndarray | None = None
    #: ``shifts[k, i]``: how much wire ``k``'s value changes when
    #: ``inverse`` maps joint index ``i`` (a ``(len(dims), size)`` int
    #: table), or None for non-permutations.  A full-register gather is
    #: the joint index plus these shifts weighted by the touched axes'
    #: register weights (:func:`_build_permutation_gather`).
    shifts: np.ndarray | None = None

    @property
    def is_permutation(self) -> bool:
        """True iff the gate lowered to an actual lookup table."""
        return self.table is not None


@dataclass(frozen=True)
class ColumnKernel:
    """One non-permutation gate's unitary by columns, for the basis-input
    walk of :mod:`repro.sim.classical`.

    Column ``c`` (a joint input index, as in :class:`PermutationKernel`)
    has its nonzero entries at the joint output indices ``rows[c]``,
    with values ``entries[c]``; narrower columns are padded with zero
    entries up to the widest one.  A diagonal gate has one entry per
    column, on the diagonal.
    """

    #: Wire dimensions, in gate order.
    dims: tuple[int, ...]
    #: Mixed-radix encode weights, as in :class:`PermutationKernel`.
    weights: np.ndarray
    #: ``(size, fan)`` output indices of each column's nonzero entries.
    rows: np.ndarray
    #: ``(size, fan)`` complex128 entries (zero where padded).
    entries: np.ndarray
    #: True iff every off-diagonal entry is exactly zero.
    diagonal: bool


def mixed_radix_weights(dims: Sequence[int]) -> np.ndarray:
    """Encode factors for the library's mixed-radix convention.

    ``weights[k] = prod(dims[k+1:])`` (first wire most significant), so
    ``index = values @ weights`` and ``values[k] = index // weights[k]
    % dims[k]`` — the vectorized counterparts of
    :func:`repro.gates.base.values_to_index` / ``index_to_values``.
    """
    weights = np.ones(len(dims), dtype=np.int64)
    for k in range(len(dims) - 2, -1, -1):
        weights[k] = weights[k + 1] * dims[k + 1]
    return weights


def embed_permutation_table(
    table: "Sequence[int] | np.ndarray",
    old_dims: Sequence[int],
    new_dims: Sequence[int],
) -> np.ndarray:
    """Lift a permutation table onto elementwise-larger wire dimensions.

    The returned table acts as the original permutation on every joint
    basis state whose per-wire values all lie below the old dimensions,
    and as the identity on every state touching an added level — the
    whole-domain action of a block-diagonal embedding.  This is the
    permutation-table form of the qubit->qutrit lift, computed with the
    same vectorized mixed-radix arithmetic as the batched classical
    engine, so :class:`~repro.gates.embedded.EmbeddedGate` wrapping a
    classical gate lowers to a lookup table without ever forming its
    dense matrix and keeps the permutation fast paths.
    """
    old_dims = tuple(int(d) for d in old_dims)
    new_dims = tuple(int(d) for d in new_dims)
    if len(old_dims) != len(new_dims) or any(
        n < o for n, o in zip(new_dims, old_dims)
    ):
        raise ValueError(
            f"cannot embed dims {old_dims} into {new_dims}"
        )
    table = np.asarray(table, dtype=np.int64)
    new_weights = mixed_radix_weights(new_dims)
    old_weights = mixed_radix_weights(old_dims)
    size = 1
    for d in new_dims:
        size *= d
    index = np.arange(size, dtype=np.int64)
    digits = [
        (index // new_weights[k]) % new_dims[k]
        for k in range(len(new_dims))
    ]
    member = np.ones(size, dtype=bool)
    for k, old in enumerate(old_dims):
        member &= digits[k] < old
    sub_index = np.zeros(int(member.sum()), dtype=np.int64)
    for k in range(len(old_dims)):
        sub_index += digits[k][member] * old_weights[k]
    mapped = table[sub_index]
    image = np.zeros_like(sub_index)
    for k in range(len(old_dims)):
        image += ((mapped // old_weights[k]) % old_dims[k]) * new_weights[k]
    out = index.copy()
    out[member] = image
    return out


def apply_block(
    tensor: np.ndarray, block: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """Contract a kernel-form operator block against ``axes`` of a tensor.

    ``block`` has output legs first, input legs last (``dims + dims``);
    the input legs tie to the given ``axes`` and the result's new legs
    move back into place, leaving every other axis untouched.  This is
    the one contraction every dense engine shares: state vectors pass
    their bare tensor, the fused trajectory engine passes row stacks
    whose row axis simply never appears in ``axes``.
    """
    axes = list(axes)
    k = len(axes)
    moved = np.tensordot(block, tensor, axes=(range(k, 2 * k), axes))
    return np.moveaxis(moved, range(k), axes)


#: (gate id, dtype char) -> GateKernel.  Process-wide; ids are never
#: reassigned, so entries never go stale.  complex64 variants (the
#: bulk-sweep mode) get their own entries, cast once from the
#: complex128 block.
_GATE_KERNELS: dict[tuple[int, str], GateKernel] = {}

#: (sub-gate id, dtype char) -> the sub-gate's unitary in ``dims +
#: dims`` block form and its phases (as in :attr:`GateKernel.phases`),
#: for the control-block path.
_CONTROL_BLOCKS: dict[
    tuple[int, str], tuple[np.ndarray, np.ndarray | None]
] = {}

#: gate id -> PermutationKernel (including negative results: "not a
#: permutation" is cached too, so classicality checks of circuits full
#: of non-classical gates stay cheap).
_PERM_KERNELS: dict[int, PermutationKernel] = {}

#: gate id -> ColumnKernel, for the non-permutation gates a basis-input
#: walk met.
_COLUMN_KERNELS: dict[int, ColumnKernel] = {}

#: channel instance -> ChannelKernel.  Weak keys: cached factory channels
#: live for the process anyway, ad-hoc channels can be collected.
_CHANNEL_KERNELS: "weakref.WeakKeyDictionary[object, ChannelKernel]" = (
    weakref.WeakKeyDictionary()
)

#: Entry cap of each gather cache.  A serving process meets a stream of
#: distinct (gate, placement, register) combos, so the caches evict
#: their least recently used entries instead of growing without bound;
#: 256 keeps a simulation workload's whole warm set (tens of entries).
GATHER_CACHE_ENTRIES = 256


class _GatherCache:
    """A thread-safe LRU of read-only gather arrays, capped in entries."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> "np.ndarray | None":
        with self._lock:
            gather = self._entries.get(key)
            if gather is not None:
                self._entries.move_to_end(key)
            return gather

    def peek(self, key: tuple) -> "np.ndarray | None":
        """The entry for ``key`` without refreshing its recency."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple, gather: np.ndarray) -> None:
        with self._lock:
            self._entries[key] = gather
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Registers up to this many amplitudes cache their full-register
#: gathers (8 bytes per amplitude each).  Wider registers cache none: a
#: 3^13 gather is 12.8 MB, and a cache of them pins register-sized
#: arrays nothing may read again.  There a :class:`GatePlan` applies
#: each gate on its own control block or kernel, and a direct gather
#: call builds its map and returns it without keeping it.
_GATHER_MAX_ENTRIES = 1 << 18


def caches_gathers(shape: Sequence[int]) -> bool:
    """True if a register of ``shape`` is within
    :data:`_GATHER_MAX_ENTRIES` amplitudes, so its gathers are cached."""
    return math.prod(shape) <= _GATHER_MAX_ENTRIES


#: (gate id, touched axes, register shape) -> full-register
#: gather indices.  Entries are O(register size) ints, so this cache is
#: the memory-heaviest of the family; entries only exist for (gate,
#: placement, register) combos the fast path executed as a single op
#: (a composed segment reads them but never adds one).
_PERM_GATHERS = _GatherCache(GATHER_CACHE_ENTRIES)

#: (tuple of (gate id, axes) steps, register shape) -> composed
#: full-register gather indices for a whole run of consecutive
#: permutation operations.  Only multi-op segments are cached (single
#: ops live in _PERM_GATHERS).
_SEGMENT_GATHERS = _GatherCache(GATHER_CACHE_ENTRIES)


def _as_block(matrix: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    block = np.ascontiguousarray(matrix, dtype=complex)
    return block.reshape(dims + dims)


def _phases(
    matrix: np.ndarray, dims: tuple[int, ...], dtype: np.dtype
) -> np.ndarray | None:
    """``matrix``'s diagonal as a read-only ``dims``-shaped tensor at
    ``dtype``, or None unless every off-diagonal entry is exactly zero
    (then the multiply and the contraction agree to rounding)."""
    diagonal = np.diagonal(matrix)
    if np.count_nonzero(matrix) != np.count_nonzero(diagonal):
        return None
    phases = diagonal.astype(dtype).reshape(dims)
    phases.setflags(write=False)
    return phases


def gate_kernel(
    op: GateOperation, dtype: "np.dtype | type" = np.complex128
) -> GateKernel:
    """The cached kernel for ``op``'s gate (built on first use).

    Building the kernel also pays the gate's ``unitary()`` cost (which,
    for decomposed/controlled gates, multiplies out the construction), so
    repeated applications of a structurally identical gate never
    recompute the matrix.  The diagonal verdict and phases are read off
    that same matrix.  ``dtype`` selects the precision of the cached
    block (``complex64`` for the bulk-sweep mode); each precision is its
    own cache entry, cast once.
    """
    dtype = np.dtype(dtype)
    key = (spec_id(op.gate), dtype.char)
    kernel = _GATE_KERNELS.get(key)
    if kernel is None:
        dims = tuple(op.gate.dims)
        matrix = np.asarray(op.unitary(), dtype=complex)
        block = _as_block(matrix, dims)
        if dtype != np.dtype(np.complex128):
            block = block.astype(dtype)
        kernel = GateKernel(
            dims, block, block.conj(), _phases(matrix, dims, dtype)
        )
        _GATE_KERNELS[key] = kernel
    return kernel


def _control_block(
    gate: ControlledGate, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray | None]:
    """The cached block and phases of a controlled gate's sub-gate at
    ``dtype``."""
    sub = gate.sub_gate
    key = (spec_id(sub), dtype.char)
    entry = _CONTROL_BLOCKS.get(key)
    if entry is None:
        dims = tuple(sub.dims)
        matrix = np.asarray(sub.unitary(), dtype=complex)
        entry = (
            _as_block(matrix, dims).astype(dtype, copy=False),
            _phases(matrix, dims, dtype),
        )
        _CONTROL_BLOCKS[key] = entry
    return entry


def _control_slice(
    gate: ControlledGate, axes: Sequence[int], ndim: int
) -> tuple[tuple, list[int]]:
    """The index of ``gate``'s control block in an ``ndim``-axis tensor
    (every control axis at its activation value) and the target axes
    within that block."""
    controls = axes[: gate.num_controls]
    index = [slice(None)] * ndim
    for axis, value in zip(controls, gate.control_values):
        index[axis] = value
    # Integer indices drop the control axes from the view, so each
    # target axis shifts down by the controls in front of it.
    targets = [
        axis - sum(c < axis for c in controls)
        for axis in axes[gate.num_controls:]
    ]
    return tuple(index), targets


def _broadcast(
    phases: np.ndarray, axes: Sequence[int], ndim: int
) -> np.ndarray:
    """``phases`` (one leg per axis, in ``axes`` order) reshaped to
    broadcast onto ``axes`` of an ``ndim``-axis tensor."""
    shape = [1] * ndim
    for axis, dim in zip(axes, phases.shape):
        shape[axis] = dim
    if any(a > b for a, b in zip(axes, axes[1:])):
        phases = phases.transpose(np.argsort(axes))
    return phases.reshape(shape)


def diagonal_factor(
    op: GateOperation,
    axes: Sequence[int],
    ndim: int,
    dtype: "np.dtype | type" = np.complex128,
) -> tuple[tuple, np.ndarray] | None:
    """``op`` on ``axes`` as one in-place multiply, or None if its gate
    is not diagonal.

    Returns ``(index, factor)``: ``view = tensor[index]; view *= factor``
    applies the gate to an ``ndim``-axis tensor of ``dtype``, in place
    (callers must own the tensor).  A
    :class:`~repro.gates.controlled.ControlledGate` with a diagonal
    sub-gate multiplies only its control block by the sub-gate's phases;
    any other diagonal gate multiplies the whole tensor (``index`` is
    ``()``) by its phase tensor broadcast onto ``axes``, in any axis
    order.  The verdict and the phases are read from the gate-kernel
    caches (:func:`gate_kernel`, or the control-block cache for a
    controlled gate), so a gate's matrix is formed exactly when the
    contraction path would form it.
    """
    gate = op.gate
    dtype = np.dtype(dtype)
    if isinstance(gate, ControlledGate):
        _, phases = _control_block(gate, dtype)
        if phases is None:
            return None
        index, targets = _control_slice(gate, axes, ndim)
        return index, _broadcast(phases, targets, ndim - gate.num_controls)
    phases = gate_kernel(op, dtype).phases
    if phases is None:
        return None
    return (), _broadcast(phases, axes, ndim)


def permutation_kernel(op: GateOperation) -> PermutationKernel:
    """The cached permutation kernel for ``op``'s gate (built on first use).

    Lowering asks the gate for its whole-domain permutation
    (:meth:`~repro.gates.base.Gate.permutation`): permutation-native
    gates hand over their mapping directly, matrix-backed gates pay one
    permutation-matrix check of their unitary.  Either way the verdict
    and the table are cached on the gate id, so every structurally
    identical gate across circuits, constructions, and engines lowers
    exactly once.
    """
    gate_id = spec_id(op.gate)
    kernel = _PERM_KERNELS.get(gate_id)
    if kernel is None:
        dims = tuple(op.gate.dims)
        weights = mixed_radix_weights(dims)
        try:
            table = np.asarray(op.gate.permutation(), dtype=np.int64)
            table.setflags(write=False)
        except NotClassicalError:
            table = None
        weights.setflags(write=False)
        inverse = shifts = None
        if table is not None:
            index = np.arange(table.size, dtype=np.int64)
            inverse = np.empty_like(table)
            inverse[table] = index
            inverse.setflags(write=False)
            radix = np.asarray(dims, dtype=np.int64)[:, None]
            shifts = (inverse // weights[:, None]) % radix - (
                index // weights[:, None]
            ) % radix
            shifts.setflags(write=False)
        kernel = PermutationKernel(dims, table, weights, inverse, shifts)
        _PERM_KERNELS[gate_id] = kernel
    return kernel


def column_kernel(op: GateOperation) -> ColumnKernel:
    """The cached column kernel for ``op``'s gate (built on first use).

    The entries come from the matrix the gate-kernel cache holds; a
    :class:`~repro.gates.controlled.ControlledGate` reads only its
    sub-gate's block from the control-block cache and is the identity
    on every other column, so no full controlled matrix is formed.
    """
    gate_id = spec_id(op.gate)
    kernel = _COLUMN_KERNELS.get(gate_id)
    if kernel is None:
        gate = op.gate
        dims = tuple(gate.dims)
        size = math.prod(dims)
        if isinstance(gate, ControlledGate):
            block, _ = _control_block(gate, np.dtype(np.complex128))
            width = math.prod(gate.sub_gate.dims)
            low = width * values_to_index(
                gate.control_values, gate.control_dims
            )
        else:
            block, width, low = gate_kernel(op).block, size, 0
        matrix = block.reshape(width, width)
        nonzero = matrix != 0
        fan = max(1, int(nonzero.sum(axis=0).max()))
        # Each column's nonzero rows first, in row order.
        order = np.argsort(~nonzero, axis=0, kind="stable")[:fan]
        rows = np.repeat(np.arange(size, dtype=np.int64)[:, None], fan, 1)
        entries = np.zeros((size, fan), dtype=complex)
        entries[:, 0] = 1.0
        rows[low : low + width] = low + order.T
        entries[low : low + width] = np.take_along_axis(matrix, order, 0).T
        for array in (rows, entries):
            array.setflags(write=False)
        weights = mixed_radix_weights(dims)
        weights.setflags(write=False)
        kernel = ColumnKernel(
            dims,
            weights,
            rows,
            entries,
            fan == 1 and bool(np.all(rows[:, 0] == np.arange(size))),
        )
        _COLUMN_KERNELS[gate_id] = kernel
    return kernel


def _build_permutation_gather(
    op: GateOperation,
    axes: Sequence[int],
    shape: Sequence[int],
) -> np.ndarray:
    """Lift ``op``'s inverse table to full-register gather indices.

    Routing a joint index through the inverse table changes only its
    digits on ``axes``, so the gather is the joint index plus an offset
    that depends on those digits alone: the kernel's per-wire shifts
    weighted by the axes' register weights, a table the size of the
    gate, broadcast onto ``axes``.  One integer add over the register;
    callers decide whether to cache the result.

    Raises :class:`NotClassicalError` for non-permutation gates.
    """
    kernel = permutation_kernel(op)
    if kernel.inverse is None:
        raise NotClassicalError(f"gate {op.gate} is not a basis permutation")
    weights = [math.prod(shape[a + 1:]) for a in axes]
    offsets = np.dot(weights, kernel.shifts).reshape(kernel.dims)
    index = np.arange(math.prod(shape), dtype=np.int64).reshape(shape)
    return (index + _broadcast(offsets, axes, len(shape))).ravel()


def permutation_gather(
    op: GateOperation,
    axes: Sequence[int],
    shape: Sequence[int],
) -> np.ndarray:
    """Full-register gather indices for a permutation gate on ``axes``.

    The returned array ``g`` moves amplitudes in one fancy-indexing pass
    over the *flat* state vector: ``psi'[j] = psi[g[j]]`` for every
    joint index ``j`` of a register of the given ``shape``.  This is the
    state-vector fast path's whole per-application cost — one contiguous
    gather, no moveaxis shuffling, no ``D x D`` contraction — and the
    index map is cached on ``(gate id, axes, shape)``, so a gate
    that repeats at one placement (across moments, runs, or sweeps)
    builds it once.  Registers above :data:`_GATHER_MAX_ENTRIES`
    amplitudes build it on every call and never cache it.

    Raises :class:`NotClassicalError` for non-permutation gates.
    """
    cached = caches_gathers(shape)
    key = (spec_id(op.gate), tuple(axes), tuple(shape))
    gather = _PERM_GATHERS.get(key) if cached else None
    if gather is None:
        gather = _build_permutation_gather(op, axes, shape)
        gather.setflags(write=False)
        if cached:
            _PERM_GATHERS.put(key, gather)
    return gather


def segment_permutation_gather(
    steps: Sequence[tuple[GateOperation, Sequence[int]]],
    shape: Sequence[int],
) -> np.ndarray:
    """Composed gather indices for a run of permutation operations.

    A contiguous stretch of permutation gates is itself one basis
    permutation of the register, so the whole segment collapses to a
    single fancy-indexing pass: applying ``g1`` then ``g2`` to the
    state equals one gather through ``g1[g2]``.  The composed map is
    cached on the sequence of ``(gate id, axes)`` steps plus the
    register shape — a circuit (or sweep) that repeats the same
    permutation stretch pays the composition once and every subsequent
    run is one pass over the amplitudes, however deep the stretch.

    A segment that misses that cache is composed from its steps' own
    gathers: each step whose ``(gate id, axes, shape)`` has an entry in
    the per-placement cache of :func:`permutation_gather` reuses it,
    and only a step without one is built, for this composition alone.
    The lookup does not refresh the entry's recency, so composing never
    adds, drops or reorders a per-placement entry; the composed map is
    the one entry a miss adds.  A one-off circuit (a compile-and-run
    stream never repeats one) thus pays a gather build only for the
    placements no single-op application has met.  As in
    :func:`permutation_gather`, registers above
    :data:`_GATHER_MAX_ENTRIES` amplitudes cache nothing.
    """
    if len(steps) == 1:
        op, axes = steps[0]
        return permutation_gather(op, axes, shape)
    cached = caches_gathers(shape)
    shape = tuple(shape)
    placements = tuple((spec_id(op.gate), tuple(axes)) for op, axes in steps)
    key = (placements, shape)
    gather = _SEGMENT_GATHERS.get(key) if cached else None
    if gather is None:
        total: np.ndarray | None = None
        for (op, axes), placement in zip(steps, placements):
            step = _PERM_GATHERS.peek(placement + (shape,)) if cached else None
            if step is None:
                step = _build_permutation_gather(op, axes, shape)
            total = step if total is None else total[step]
        gather = total
        gather.setflags(write=False)
        if cached:
            _SEGMENT_GATHERS.put(key, gather)
    return gather


#: The kinds of :class:`GatePlan` step (the first field of each step).
GATHER = "gather"
MULTIPLY = "multiply"
CONTROL = "control"
DENSE = "dense"

#: Step kinds that write into the tensor they are given.
IN_PLACE = (MULTIPLY, CONTROL)


class GatePlan:
    """The steps that apply a circuit's gates to a register.

    Gates arrive a moment at a time (:meth:`moment`), as ``(operation,
    register axes)`` pairs, and leave as steps for :func:`apply_steps`:

    * ``(GATHER, gather, None)``: a segment of permutation gates, composed
      into one full-register gather (:func:`segment_permutation_gather`);
    * ``(MULTIPLY, index, factor)``: a diagonal gate, one in-place
      multiply (:func:`diagonal_factor`);
    * ``(CONTROL, (index, targets), block)``: any other
      :class:`~repro.gates.controlled.ControlledGate`, its sub-gate's
      block contracted into its control block, in place;
    * ``(DENSE, axes, block)``: any other gate, its kernel block
      contracted into a new array.

    Permutation gates gather only on a register whose gathers are cached
    (:func:`caches_gathers`); on a wider one they take a control-block or
    dense step like any other gate, so no register-sized index array is
    built.

    The segment rule decides where a gather runs:

    * a moment of permutation gates only extends the open segment;
    * in a moment with other gates, an open segment takes the moment's
      permutation gates and ends as one gather before those gates;
    * with no segment open, the other gates go first and the moment's
      permutation gates open the next segment;
    * within a moment, multiplies precede blocks.

    Gates in one moment touch disjoint wires, so this order changes
    results only by rounding, and it never runs more gathers than
    program order, where every other gate ends the segment.
    :meth:`close` ends the open segment: a state-vector run closes it
    after its last moment, the trajectory engine after every moment (so
    it gathers at most once per moment).

    ``lead`` is the number of leading axes that pass through every step:
    0 for one register, 1 for the trajectory engine's row stack.
    ``dtype`` is the tensor's, for the factors and blocks.
    """

    def __init__(
        self,
        shape: Sequence[int],
        lead: int = 0,
        dtype: "np.dtype | type" = np.complex128,
    ) -> None:
        self.shape = tuple(shape)
        self.lead = lead
        self.dtype = np.dtype(dtype)
        self._gathers = caches_gathers(self.shape)
        #: (gate id, axes) -> the gate's step there, or None when it
        #: joins a segment.
        self._placed: dict[tuple, tuple | None] = {}
        #: The open segment's ``(operation, axes)`` permutation gates.
        self._segment: list = []

    def _step(self, op: GateOperation, axes: Sequence[int]) -> tuple | None:
        if self._gathers and permutation_kernel(op).is_permutation:
            return None
        gate = op.gate
        ndim = self.lead + len(self.shape)
        axes = [a + self.lead for a in axes]
        factor = diagonal_factor(op, axes, ndim, self.dtype)
        if factor is not None:
            return (MULTIPLY,) + factor
        if isinstance(gate, ControlledGate):
            block, _ = _control_block(gate, self.dtype)
            return CONTROL, _control_slice(gate, axes, ndim), block
        return DENSE, axes, gate_kernel(op, self.dtype).block

    def moment(
        self, placed: "Sequence[tuple[GateOperation, Sequence[int]]]"
    ) -> list[tuple]:
        """The steps of one moment's gates, given as ``(operation,
        register axes)`` pairs (the segment rule above)."""
        permutations, multiplies, blocks = [], [], []
        for op, axes in placed:
            key = (spec_id(op.gate), tuple(axes))
            step = self._placed.get(key, False)
            if step is False:
                step = self._placed[key] = self._step(op, axes)
            if step is None:
                permutations.append((op, axes))
            elif step[0] == MULTIPLY:
                multiplies.append(step)
            else:
                blocks.append(step)
        steps = multiplies + blocks
        if not steps:
            self._segment += permutations
        elif self._segment:
            self._segment += permutations
            steps = self.close() + steps
        else:
            self._segment = permutations
        return steps

    def close(self) -> list[tuple]:
        """End the open segment: its gather step, or no step."""
        if not self._segment:
            return []
        gather = segment_permutation_gather(self._segment, self.shape)
        self._segment = []
        return [(GATHER, gather, None)]


def apply_steps(
    tensor: np.ndarray, steps: "Iterable[tuple]", lead: int = 0
) -> np.ndarray:
    """``tensor`` after :class:`GatePlan` steps planned with ``lead``.

    Multiplies and control blocks write into ``tensor``; gathers and
    dense steps replace it.  So the caller must own ``tensor`` and
    should hand over its only reference: a reference kept outside keeps
    the original array alive until the last step.
    """
    shape = tensor.shape
    for kind, target, operand in steps:
        if kind == MULTIPLY:
            tensor[target] *= operand
        elif kind == GATHER:
            # reshape copies only after a dense step left a view.
            if lead:
                tensor = tensor.reshape(shape[0], -1)[:, target]
            else:
                tensor = tensor.reshape(-1)[target]
            tensor = tensor.reshape(shape)
        elif kind == CONTROL:
            index, axes = target
            tensor[index] = apply_block(tensor[index], operand, axes)
        else:
            tensor = apply_block(tensor, operand, target)
    return tensor


def kraus_operators(
    channel: KrausChannel | UnitaryMixtureChannel,
) -> list[np.ndarray]:
    """The channel's explicit Kraus operators (mixtures are lowered).

    For a unitary mixture the lowering is ``sqrt(1 - p_total) * I``
    plus ``sqrt(p_i) * E_i`` for every branch with non-zero
    probability.  This is the single definition of that lowering — the
    dense reference engine reuses it, so the two density paths can only
    diverge in their *contraction*, which is what the parity tests pin.
    """
    if isinstance(channel, KrausChannel):
        return channel.operators
    dim = 1
    for d in channel.dims:
        dim *= d
    identity_weight = 1.0 - channel.error_probability
    operators = [
        np.sqrt(identity_weight) * np.eye(dim, dtype=complex)
    ]
    for prob, op in channel.terms:
        if prob > 0:
            operators.append(np.sqrt(prob) * op)
    return operators


def channel_kernel(
    channel: KrausChannel | UnitaryMixtureChannel,
) -> ChannelKernel:
    """The cached Kraus-block kernel for ``channel`` (built on first use)."""
    kernel = _CHANNEL_KERNELS.get(channel)
    if kernel is None:
        dims = channel.dims
        blocks = tuple(
            _as_block(op, dims) for op in kraus_operators(channel)
        )
        kernel = ChannelKernel(
            dims, blocks, tuple(b.conj() for b in blocks)
        )
        _CHANNEL_KERNELS[channel] = kernel
    return kernel


def clear_kernel_caches() -> None:
    """Drop all cached kernels and empty the gate intern table (tests
    and memory-sensitive callers).  Gate ids are kept: they are never
    reassigned."""
    clear_interned_gates()
    _GATE_KERNELS.clear()
    _CONTROL_BLOCKS.clear()
    _CHANNEL_KERNELS.clear()
    _PERM_KERNELS.clear()
    _COLUMN_KERNELS.clear()
    _PERM_GATHERS.clear()
    _SEGMENT_GATHERS.clear()


def kernel_cache_stats() -> dict[str, int]:
    """Entry counts of the process-wide kernel caches and of the gate
    intern table (diagnostics)."""
    return {
        "gate_kernels": len(_GATE_KERNELS),
        "control_blocks": len(_CONTROL_BLOCKS),
        "channel_kernels": len(_CHANNEL_KERNELS),
        "permutation_kernels": len(_PERM_KERNELS),
        "column_kernels": len(_COLUMN_KERNELS),
        "permutation_gathers": len(_PERM_GATHERS),
        "segment_gathers": len(_SEGMENT_GATHERS),
        "interned_gates": interned_gate_count(),
    }
