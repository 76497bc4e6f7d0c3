"""Gates are values: one shared instance per exact gate, per process.

Builders derive the same few gates over and over: every three-qutrit
gate of the paper's tree lowers into ``2d + 1`` two-qudit gates over the
same roots of U, and every request that builds a construction builds
all of them again.  A gate is a ``(name, params, dims)`` value, so one
instance can serve every circuit.  :func:`intern_gate` maps a gate's
exact key to that one instance; the instance then computes its spec,
canonical spec, JSON text and int id (:func:`spec_id`) once, and every
later build reads them.

Keys.  A gate's key mirrors the spec it reports (:meth:`Gate.spec`,
what ``to_json()`` writes), never the canonical spec: a tuple
``(name, params, dims)`` in which every nested gate is replaced by
that gate's own key.  Keys hold only plain ints and strings besides
nested keys, so key equality is exact (``1``, ``1.0`` and ``True``
never meet), and a factory computes the key from its arguments without
building the gate or its matrix.  A gate whose spec is its own matrix
is keyed on its derivation instead: the parent's key and the exact
arithmetic applied to it (``("__inverse__", key)`` for a structural
inverse), which fix the matrix bit for bit.  A factory whose arguments
are not plain ints and strings, or whose parent gate has no key, builds
a fresh unshared gate, as it always did.

Shared gates are immutable: a keyed gate refuses
:meth:`~repro.gates.base.Gate._set_spec`.  The table holds at most
:data:`INTERN_TABLE_ENTRIES` gates and drops its oldest entry when
full; a dropped gate stays valid wherever it is used, and the next
request for its key builds a new instance.  ``clear_kernel_caches()``
empties the table.

Ids.  :func:`spec_id` gives each canonical spec one int, from an
append-only table that is never cleared, and caches it on the gate.
Canonical-equal gates share an id, so the optimizer's memos and the
simulation kernels key on it.  Ids are process-local: a pickled gate
drops its id, and the loading process assigns its own.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .base import Gate

#: Entry cap of the intern table.  A serving process's working set is
#: a few hundred gates; the cap bounds what a stream of distinct
#: derivations can pin.
INTERN_TABLE_ENTRIES = 4096

#: key -> the one shared gate for that key (insertion order = age).
_TABLE: dict[Hashable, "Gate"] = {}
#: canonical spec -> int id.  Append-only: ids are cached on gates.
_SPEC_IDS: dict = {}
_LOCK = threading.Lock()


def exact(*values) -> bool:
    """True if every value is a plain ``int`` or ``str``: key parts
    whose equality matches their JSON text."""
    for value in values:
        if type(value) is not int and type(value) is not str:
            return False
    return True


def intern_gate(key: Hashable, build: Callable[[], "Gate"]) -> "Gate":
    """The one shared gate for ``key``; ``build()`` makes it on a miss.

    ``build`` must return a gate whose spec is what ``key`` describes.
    A gate it returns that is already shared (an interned or registered
    gate under its own key) is returned as is and not re-keyed.
    """
    gate = _TABLE.get(key)
    if gate is not None:
        return gate
    built = build()
    if built._key is not None:
        return built
    with _LOCK:
        gate = _TABLE.get(key)
        if gate is None:
            while len(_TABLE) >= INTERN_TABLE_ENTRIES:
                del _TABLE[next(iter(_TABLE))]
            object.__setattr__(built, "_key", key)
            _TABLE[key] = gate = built
    return gate


def spec_id(gate: "Gate") -> int:
    """The process-local int id of ``gate``'s canonical spec."""
    found = gate._gate_id
    if found is None:
        canonical = gate.canonical_spec()
        found = _SPEC_IDS.get(canonical)
        if found is None:
            with _LOCK:
                found = _SPEC_IDS.setdefault(canonical, len(_SPEC_IDS))
        object.__setattr__(gate, "_gate_id", found)
    return found


def interned_gate_count() -> int:
    """Number of gates in the intern table."""
    return len(_TABLE)


def clear_interned_gates() -> None:
    """Empty the intern table.  Ids are kept: they are never reassigned."""
    with _LOCK:
        _TABLE.clear()
