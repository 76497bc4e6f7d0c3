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

The classical engines have their own kernel family: a *permutation
kernel* is the gate's whole-domain basis permutation lowered to a flat
``int64`` lookup table over the mixed-radix index of its wires (plus the
encode weights), or an explicit "not a permutation" marker when the gate
is not classical.  Lowering inspects the full action — never a probe at
one input — so kernel-level classicality is exact, and the batched
classical engine advances thousands of basis states per gate with one
table gather.

Cache keys:

* gate kernels and permutation kernels are keyed on the gate's
  **canonical spec** (:meth:`~repro.gates.base.Gate.spec` lowered to
  structural form — the PR 2 content-addressed identity), so two
  structurally equal gates share one kernel no matter how they were
  built;
* channel kernels are keyed on the channel *instance*.  The channel
  factories in :mod:`repro.noise` are ``lru_cache``-d singletons, so this
  is equivalent to keying on the channel's parameters; hand-built
  channels get their own entry (weakly referenced, so they can still be
  collected).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..circuits.operation import GateOperation
from ..exceptions import NotClassicalError
from ..gates.spec import GateSpec
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

    @property
    def is_permutation(self) -> bool:
        """True iff the gate lowered to an actual lookup table."""
        return self.table is not None


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
    their bare tensor, the batched engines pass stacked tensors whose
    batch axis simply never appears in ``axes``.
    """
    axes = list(axes)
    k = len(axes)
    moved = np.tensordot(block, tensor, axes=(range(k, 2 * k), axes))
    return np.moveaxis(moved, range(k), axes)


#: (canonical GateSpec, dtype char) -> GateKernel.  Process-wide; specs
#: are immutable values, so entries never go stale.  complex64 variants
#: (the bulk-sweep mode) get their own entries, cast once from the
#: complex128 block.
_GATE_KERNELS: dict[tuple[GateSpec, str], GateKernel] = {}

#: canonical GateSpec -> PermutationKernel (including negative results:
#: "not a permutation" is cached too, so classicality checks of circuits
#: full of non-classical gates stay cheap).
_PERM_KERNELS: dict[GateSpec, PermutationKernel] = {}

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


#: (canonical GateSpec, touched axes, register shape) -> full-register
#: gather indices.  Entries are O(register size) ints, so this cache is
#: the memory-heaviest of the family; entries only exist for (gate,
#: placement, register) combos the state-vector fast path executed.
_PERM_GATHERS = _GatherCache(GATHER_CACHE_ENTRIES)

#: (tuple of (canonical spec, axes) steps, register shape) -> composed
#: full-register gather indices for a whole run of consecutive
#: permutation operations.  Only multi-op segments are cached (single
#: ops live in _PERM_GATHERS).
_SEGMENT_GATHERS = _GatherCache(GATHER_CACHE_ENTRIES)


def _as_block(matrix: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    block = np.ascontiguousarray(matrix, dtype=complex)
    return block.reshape(dims + dims)


def gate_kernel(
    op: GateOperation, dtype: "np.dtype | type" = np.complex128
) -> GateKernel:
    """The cached kernel for ``op``'s gate (built on first use).

    Building the kernel also pays the gate's ``unitary()`` cost (which,
    for decomposed/controlled gates, multiplies out the construction), so
    repeated applications of a structurally identical gate never
    recompute the matrix.  ``dtype`` selects the precision of the cached
    block (``complex64`` for the bulk-sweep mode); each precision is its
    own cache entry, cast once.
    """
    dtype = np.dtype(dtype)
    spec = op.gate.canonical_spec()
    key = (spec, dtype.char)
    kernel = _GATE_KERNELS.get(key)
    if kernel is None:
        dims = tuple(op.gate.dims)
        block = _as_block(op.unitary(), dims)
        if dtype != np.dtype(np.complex128):
            block = block.astype(dtype)
        kernel = GateKernel(dims, block, block.conj())
        _GATE_KERNELS[key] = kernel
    return kernel


def permutation_kernel(op: GateOperation) -> PermutationKernel:
    """The cached permutation kernel for ``op``'s gate (built on first use).

    Lowering asks the gate for its whole-domain permutation
    (:meth:`~repro.gates.base.Gate.permutation`): permutation-native
    gates hand over their mapping directly, matrix-backed gates pay one
    permutation-matrix check of their unitary.  Either way the verdict
    and the table are cached on the canonical spec, so every structurally
    identical gate across circuits, constructions, and engines lowers
    exactly once.
    """
    spec = op.gate.canonical_spec()
    kernel = _PERM_KERNELS.get(spec)
    if kernel is None:
        dims = tuple(op.gate.dims)
        weights = mixed_radix_weights(dims)
        try:
            table = np.asarray(op.gate.permutation(), dtype=np.int64)
            table.setflags(write=False)
        except NotClassicalError:
            table = None
        weights.setflags(write=False)
        inverse = None
        if table is not None:
            inverse = np.empty_like(table)
            inverse[table] = np.arange(table.size, dtype=np.int64)
            inverse.setflags(write=False)
        kernel = PermutationKernel(dims, table, weights, inverse)
        _PERM_KERNELS[spec] = kernel
    return kernel


def _build_permutation_gather(
    kernel: PermutationKernel,
    axes: Sequence[int],
    shape: Sequence[int],
) -> np.ndarray:
    """Lift a gate's inverse table to full-register gather indices.

    Decodes the touched-axis digits of every joint index, routes them
    through the inverse table, and re-encodes — a few vectorized
    integer passes over the register.  Callers cache the result.
    """
    full_weights = mixed_radix_weights(shape)
    gate_weights = kernel.weights
    size = 1
    for d in shape:
        size *= d
    index = np.arange(size, dtype=np.int64)
    digits = [(index // full_weights[a]) % shape[a] for a in axes]
    gate_index = digits[0] * gate_weights[0]
    for t in range(1, len(axes)):
        gate_index += digits[t] * gate_weights[t]
    mapped = kernel.inverse[gate_index]
    gather = index
    for t, a in enumerate(axes):
        new_digit = (mapped // gate_weights[t]) % kernel.dims[t]
        gather += (new_digit - digits[t]) * full_weights[a]
    return gather


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
    index map is cached on ``(canonical spec, axes, shape)``, so a gate
    that repeats at one placement (across moments, runs, or sweeps)
    builds it once.

    Raises :class:`NotClassicalError` for non-permutation gates.
    """
    spec = op.gate.canonical_spec()
    key = (spec, tuple(axes), tuple(shape))
    gather = _PERM_GATHERS.get(key)
    if gather is None:
        kernel = permutation_kernel(op)
        if kernel.inverse is None:
            raise NotClassicalError(
                f"gate {op.gate} is not a basis permutation"
            )
        gather = _build_permutation_gather(kernel, axes, shape)
        gather.setflags(write=False)
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
    cached on the sequence of ``(canonical spec, axes)`` steps plus the
    register shape — a circuit (or sweep) that repeats the same
    permutation stretch pays the composition once and every subsequent
    run is one pass over the amplitudes, however deep the stretch.

    Composition runs over int64 indices (half the traffic of complex
    amplitudes), so even the first run costs no more than applying the
    gates one by one.
    """
    if len(steps) == 1:
        op, axes = steps[0]
        return permutation_gather(op, axes, shape)
    key = (
        tuple(
            (op.gate.canonical_spec(), tuple(axes)) for op, axes in steps
        ),
        tuple(shape),
    )
    gather = _SEGMENT_GATHERS.get(key)
    if gather is None:
        total: np.ndarray | None = None
        for op, axes in steps:
            kernel = permutation_kernel(op)
            if kernel.inverse is None:
                raise NotClassicalError(
                    f"gate {op.gate} is not a basis permutation"
                )
            step = _build_permutation_gather(kernel, axes, shape)
            total = step if total is None else total[step]
        gather = total
        gather.setflags(write=False)
        _SEGMENT_GATHERS.put(key, gather)
    return gather


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
    """Drop all cached kernels (tests and memory-sensitive callers)."""
    _GATE_KERNELS.clear()
    _CHANNEL_KERNELS.clear()
    _PERM_KERNELS.clear()
    _PERM_GATHERS.clear()
    _SEGMENT_GATHERS.clear()


def kernel_cache_stats() -> dict[str, int]:
    """Entry counts of the process-wide kernel caches (diagnostics)."""
    return {
        "gate_kernels": len(_GATE_KERNELS),
        "channel_kernels": len(_CHANNEL_KERNELS),
        "permutation_kernels": len(_PERM_KERNELS),
        "permutation_gathers": len(_PERM_GATHERS),
        "segment_gathers": len(_SEGMENT_GATHERS),
    }
