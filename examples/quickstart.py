"""Quickstart: build, verify and noise-simulate a qutrit Generalized Toffoli.

Run:  python examples/quickstart.py

Walks the library's core loop through the one entry point, execute():
1. run the paper's log-depth ancilla-free qutrit construction classically,
2. verify all binary inputs (linear-time permutation propagation),
3. compare its resources with the qubit baselines,
4. compile it through a pass pipeline,
5. estimate its fidelity under a near-term superconducting noise model.
"""

from __future__ import annotations

from itertools import product

from repro import PipelineSpec, build_toffoli, execute
from repro.noise import SC


def main() -> None:
    n = 7  # seven controls + one target

    # -- 1. one call: build + run --------------------------------------
    # The classical backend propagates basis states in O(width) per gate
    # (paper Sec. 6); constructions are built at permutation granularity.
    result = execute(
        "qutrit_tree",
        num_controls=n,
        backend="classical",
        initial=(1,) * n + (0,),
    )
    print("all-ones input ->", result.values)

    # -- 2. verify every binary input ----------------------------------
    failures = 0
    for values in product([0, 1], repeat=n + 1):
        out = execute(
            "qutrit_tree", num_controls=n, backend="classical",
            initial=values,
        )
        expected = list(values)
        if all(v == 1 for v in values[:n]):
            expected[n] ^= 1
        failures += out.values != tuple(expected)
    print(f"verified all {2 ** (n + 1)} binary inputs: {failures} failures")

    # -- 3. compare resources ------------------------------------------
    print("\nresource comparison (same logical gate):")
    for name in ("qutrit_tree", "qubit_one_dirty", "qubit_ancilla_free"):
        print(" ", build_toffoli(name, n).describe())

    # -- 4. compile through a pass pipeline ----------------------------
    compiled = PipelineSpec.from_name("lowering").build().compile(
        build_toffoli("qutrit_tree", n, decompose=False).circuit
    )
    print("\ncompile pipeline report:")
    print(compiled.report())

    # -- 5. noisy simulation -------------------------------------------
    estimate = execute(
        "qutrit_tree",
        num_controls=n,
        backend="trajectory",
        noise_model=SC,
        trials=40,
        seed=1,
    )
    print(f"\nnoisy simulation under {SC.name}: {estimate}")


if __name__ == "__main__":
    main()
