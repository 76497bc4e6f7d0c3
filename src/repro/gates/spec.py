"""Canonical gate specs and the package-wide gate registry.

A :class:`GateSpec` is the serializable identity of a gate: a registry
``name``, a tuple of ``params`` and the tuple of wire ``dims`` it acts
on.  Every gate the package constructs can report its spec via
:meth:`~repro.gates.base.Gate.spec` and be rebuilt from it via
:meth:`GateRegistry.build`, which makes circuits plain values: they can
be hashed, compared structurally, written to JSON and shipped across
process boundaries (see :mod:`repro.circuits.circuit` and
:mod:`repro.execution.cache`).

Two kinds of spec exist:

* **semantic** specs name a registered constructor with its parameters,
  e.g. ``GateSpec("shift", (1,), (3,))`` for the paper's X+1 gate — the
  `(name, params, dims)` shape qudit toolchains such as Yeh & van de
  Wetering's qutrit Clifford+T compiler use;
* **structural** specs describe a gate class directly (``__perm__``,
  ``__phased__``, ``__matrix__``, ``__controlled__``) and act as the
  universal fallback, so even a hand-built
  :class:`~repro.gates.matrix.MatrixGate` serializes (as its full
  matrix) and fingerprints (as a digest of that matrix) without any
  registration.

Spec params are restricted to JSON-representable values: ``None``,
``bool``, ``int``, ``float``, ``str``, ``complex`` (encoded as a
re/im pair), nested tuples of those, and nested :class:`GateSpec`
objects (for controlled / embedded / derived gates).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Iterator, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .base import Gate

#: JSON marker for complex parameter values.
_COMPLEX_KEY = "__complex__"
#: JSON marker for nested gate specs inside parameter lists.
_SPEC_KEY = "__gate__"


def _freeze_param(value):
    """Coerce a parameter to its canonical hashable form."""
    if isinstance(value, GateSpec):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_param(item) for item in value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        # +0.0 collapses -0.0 to 0.0: the two compare equal (so specs
        # would too) but json.dumps renders them differently, which
        # would let structurally equal gates fingerprint apart.
        return float(value) + 0.0
    if isinstance(value, complex):
        return complex(value.real + 0.0, value.imag + 0.0)
    if isinstance(value, str):
        return value
    # Numpy scalars and other number-likes: prefer the exact kinds
    # (re-frozen so the signed-zero normalization above applies).
    for kind in (int, float, complex):
        if hasattr(value, "__" + kind.__name__ + "__"):
            return _freeze_param(kind(value))
    raise TypeError(
        f"gate spec params must be JSON-representable, got "
        f"{type(value).__name__}: {value!r}"
    )


def _encode_param(value):
    """Lower a frozen parameter to plain JSON data."""
    if isinstance(value, GateSpec):
        return {_SPEC_KEY: value.to_dict()}
    if isinstance(value, tuple):
        return [_encode_param(item) for item in value]
    if isinstance(value, complex):
        return {_COMPLEX_KEY: [value.real, value.imag]}
    return value


def _decode_param(data):
    """Rebuild a frozen parameter from plain JSON data."""
    if isinstance(data, dict):
        if _SPEC_KEY in data:
            return GateSpec.from_dict(data[_SPEC_KEY])
        if _COMPLEX_KEY in data:
            real, imag = data[_COMPLEX_KEY]
            return complex(real, imag)
        raise ValueError(f"unrecognized parameter encoding: {data!r}")
    if isinstance(data, list):
        return tuple(_decode_param(item) for item in data)
    return data


@dataclass(frozen=True)
class GateSpec:
    """The `(name, params, dims)` identity of a gate.

    Instances are immutable, hashable values; two specs are equal iff
    their canonicalized fields are equal, which is exactly the
    round-trip guarantee: ``GateSpec.from_dict(spec.to_dict()) == spec``.
    """

    name: str
    params: tuple = field(default=())
    dims: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_param(tuple(self.params)))
        object.__setattr__(
            self, "dims", tuple(int(d) for d in self.dims)
        )

    def to_dict(self) -> dict:
        """Plain-data form of the spec (JSON-compatible)."""
        return {
            "name": self.name,
            "params": [_encode_param(p) for p in self.params],
            "dims": list(self.dims),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GateSpec":
        """Rebuild a spec from :meth:`to_dict` data."""
        return cls(
            name=data["name"],
            params=tuple(_decode_param(p) for p in data.get("params", [])),
            dims=tuple(data.get("dims", [])),
        )

    def to_json(self) -> str:
        """Canonical JSON text of the spec (sorted keys, no whitespace).

        Computed once per spec object: specs are immutable, and every
        operation of a gate fingerprints through its (cached) canonical
        spec's text.
        """
        text = self.__dict__.get("_json")
        if text is None:
            text = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            object.__setattr__(self, "_json", text)
        return text

    @classmethod
    def from_json(cls, text: str) -> "GateSpec":
        """Rebuild a spec from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))


#: A registry constructor: builds a gate from a (validated) spec.
GateConstructor = Callable[[GateSpec], "Gate"]


class GateRegistry:
    """Name -> constructor table that rebuilds gates from specs.

    Every gate module registers its constructors at import time; the
    default instance :data:`GATE_REGISTRY` lazily imports
    :mod:`repro.gates` on first use so deserialization works no matter
    which submodule the caller imported first.
    """

    def __init__(self, autoload: bool = False) -> None:
        self._constructors: dict[str, GateConstructor] = {}
        self._autoload = autoload
        self._loaded = not autoload

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            # Importing the gates package runs every module's
            # registration block exactly once.
            self._loaded = True
            import_module(__package__)

    def register(
        self, name: str, constructor: GateConstructor | None = None
    ):
        """Register ``constructor`` under ``name``.

        Usable directly or as a decorator.  Re-registering a name raises
        — specs must stay unambiguous for the lifetime of the process.
        """
        if constructor is None:
            return lambda fn: self.register(name, fn)
        if name in self._constructors:
            raise ValueError(f"gate spec name {name!r} already registered")
        self._constructors[name] = constructor
        return constructor

    def build(self, spec: GateSpec) -> "Gate":
        """Construct the gate described by ``spec``."""
        self._ensure_loaded()
        try:
            constructor = self._constructors[spec.name]
        except KeyError:
            raise KeyError(
                f"no gate constructor registered for spec name "
                f"{spec.name!r}; known names: {sorted(self._constructors)}"
            ) from None
        return constructor(spec)

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return name in self._constructors

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._constructors)

    def names(self) -> Iterator[str]:
        """Registered spec names, sorted."""
        self._ensure_loaded()
        return iter(sorted(self._constructors))


#: The package-wide registry every gate module registers into.
GATE_REGISTRY = GateRegistry(autoload=True)
