"""Scaled-down Figure 11: fidelity of the three benchmark circuits under
the paper's noise models.

Run:  python examples/noise_model_comparison.py [num_controls] [trials]

Defaults to 6 controls and 30 trials per bar (seconds-scale).  All 16
bars at 8 controls, with the paper's orderings as gated invariants, are
the ``fig11`` record of ``python -m repro bench --suite paper``.
"""

from __future__ import annotations

import sys

from repro.analysis.figures import (
    fig11_fidelity_data,
    render_fidelity_bars,
)
from repro.noise import (
    BARE_QUTRIT,
    DRESSED_QUTRIT,
    SC,
    SC_T1_GATES,
    TI_QUBIT,
)


def main() -> None:
    num_controls = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 30

    pairs = [
        ("QUBIT", SC),
        ("QUBIT+ANCILLA", SC),
        ("QUTRIT", SC),
        ("QUBIT", SC_T1_GATES),
        ("QUBIT+ANCILLA", SC_T1_GATES),
        ("QUTRIT", SC_T1_GATES),
        ("QUBIT", TI_QUBIT),
        ("QUTRIT", BARE_QUTRIT),
        ("QUTRIT", DRESSED_QUTRIT),
    ]
    print(
        f"running {len(pairs)} circuit/noise-model pairs at "
        f"{num_controls} controls, {trials} trajectories each..."
    )
    points = fig11_fidelity_data(
        pairs, num_controls=num_controls, trials=trials
    )
    print()
    print(render_fidelity_bars(points))
    print(
        "\n(paper column shows the published Figure 11 values, measured "
        "at 13 controls; orderings — QUTRIT above QUBIT everywhere — are "
        "the reproduction target at reduced width)"
    )


if __name__ == "__main__":
    main()
