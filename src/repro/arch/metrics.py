"""Routing-aware cost accounting.

The paper's connectivity discussion (Sec. 7/9) is about what a topology
*costs*: SWAP insertion inflates two-qudit gate counts and depth, which
in turn eats fidelity.  This module condenses one routing run into a
:class:`RoutingMetrics` record with three layers of cost:

* **structure** — SWAP count, routed vs logical depth/two-qudit counts,
  and the overhead ratios benches sweep;
* **closed-form fidelity proxy** — the product of per-gate success
  probabilities ``prod(1 - total_gate_error)`` under a
  :class:`~repro.noise.model.NoiseModel`, the cheap analytic estimate
  (idle errors excluded) that makes topology sweeps instant;
* **trajectory estimate** — :func:`estimate_routed_fidelity` feeds the
  routed circuit through the batched trajectory engine
  (:func:`repro.sim.fidelity.estimate_circuit_fidelity`) for the full
  Monte-Carlo number including idling, at simulation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..circuits.circuit import Circuit
from .routing import RoutedCircuit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..noise.model import NoiseModel
    from ..sim.fidelity import FidelityEstimate


@dataclass(frozen=True)
class RoutingMetrics:
    """The cost profile of one routed circuit."""

    topology: str
    router: str
    swap_count: int
    logical_depth: int
    routed_depth: int
    logical_two_qudit: int
    routed_two_qudit: int
    #: routed depth / logical depth (1.0 = free routing).
    depth_overhead: float
    #: inserted SWAPs per logical two-qudit gate.
    swap_overhead: float
    #: closed-form gate-error fidelity proxy (None without a model).
    fidelity_proxy: float | None = None
    #: the proxy of the unrouted circuit, for the routing-cost delta.
    logical_fidelity_proxy: float | None = None

    @property
    def fidelity_cost(self) -> float | None:
        """Fraction of proxy fidelity lost to routing (0.0 = free)."""
        if self.fidelity_proxy is None or not self.logical_fidelity_proxy:
            return None
        return 1.0 - self.fidelity_proxy / self.logical_fidelity_proxy

    def to_dict(self) -> dict:
        """JSON-clean form, as written into ``BENCH_route.json``."""
        return {
            "topology": self.topology,
            "router": self.router,
            "swap_count": self.swap_count,
            "logical_depth": self.logical_depth,
            "routed_depth": self.routed_depth,
            "logical_two_qudit": self.logical_two_qudit,
            "routed_two_qudit": self.routed_two_qudit,
            "depth_overhead": self.depth_overhead,
            "swap_overhead": self.swap_overhead,
            "fidelity_proxy": self.fidelity_proxy,
            "logical_fidelity_proxy": self.logical_fidelity_proxy,
        }


def gate_error_proxy(circuit: Circuit, noise_model: "NoiseModel") -> float:
    """Closed-form success probability: ``prod(1 - total_gate_error)``.

    Multiplies each gate's depolarizing success probability under
    ``noise_model`` — the paper's back-of-envelope fidelity logic
    (Sec. 7.1.1's reliability ratios compounded over the whole circuit).
    Idle damping/dephasing are excluded; use
    :func:`estimate_routed_fidelity` when they matter.
    """
    fidelity = 1.0
    for op in circuit.all_operations():
        dims = tuple(w.dimension for w in op.qudits)
        fidelity *= max(0.0, 1.0 - noise_model.total_gate_error(dims))
    return fidelity


def routing_metrics(
    logical: Circuit,
    routed: RoutedCircuit,
    noise_model: "NoiseModel | None" = None,
) -> RoutingMetrics:
    """Condense one routing run against its logical source circuit."""
    logical_2q = logical.two_qudit_gate_count
    return RoutingMetrics(
        topology=routed.topology_name,
        router=routed.router_name,
        swap_count=routed.swap_count,
        logical_depth=logical.depth,
        routed_depth=routed.depth,
        logical_two_qudit=logical_2q,
        routed_two_qudit=routed.circuit.two_qudit_gate_count,
        depth_overhead=(
            routed.depth / logical.depth if logical.depth else 1.0
        ),
        swap_overhead=(
            routed.swap_count / logical_2q if logical_2q else 0.0
        ),
        fidelity_proxy=(
            gate_error_proxy(routed.circuit, noise_model)
            if noise_model is not None
            else None
        ),
        logical_fidelity_proxy=(
            gate_error_proxy(logical, noise_model)
            if noise_model is not None
            else None
        ),
    )


def estimate_routed_fidelity(
    routed: RoutedCircuit,
    noise_model: "NoiseModel",
    trials: int = 100,
    seed: int | None = 2019,
) -> "FidelityEstimate":
    """Monte-Carlo mean fidelity of the routed circuit.

    Runs :func:`repro.sim.fidelity.estimate_circuit_fidelity` over the
    routed circuit's full site register, so SWAP gate errors and the
    idle windows routing creates are all charged — the number the
    paper's Figure 11 methodology would measure on the constrained
    device.
    """
    from ..sim.fidelity import estimate_circuit_fidelity

    return estimate_circuit_fidelity(
        routed.circuit,
        noise_model,
        trials=trials,
        seed=seed,
        # The full site register, not just gated sites: reserved wires
        # idle through the whole schedule and their decay must count.
        wires=routed.sites if routed.sites else None,
        circuit_name=f"routed@{routed.topology_name}",
    )


__all__ = [
    "RoutingMetrics",
    "routing_metrics",
    "gate_error_proxy",
    "estimate_routed_fidelity",
]
