"""Computational-basis measurement and sampling.

The paper's metric is state-vector fidelity, but a usable simulator also
needs terminal measurement: sampling outcomes from the final state
(readout is binary — circuits return to the qubit subspace — but the
sampler supports all levels so tests can verify |2> populations vanish).

Two sampling surfaces share one seeded draw primitive:

* :func:`sample_state` materialises a ``(shots, wires)`` sample array —
  the looped-shape reference, kept for callers that need per-shot rows;
* :func:`sample_counts` draws *counts* directly: flat outcomes are drawn
  in vectorized chunks from the cumulative distribution, histogrammed
  with ``np.unique``, and only the distinct outcomes are ever decoded —
  no per-shot array, so a million shots over a handful of outcomes
  costs a few kilobytes.

Both draw through :func:`_draw_flat_outcomes` (inverse-CDF sampling on
``rng.random``), so for one seed the two surfaces agree *exactly*, and
because ``Generator.random`` consumes its stream sequentially, chunked
draws concatenate to the unchunked draw: ``batch_size`` changes memory
use only, never the counts.

:func:`sample_counts` also samples a
:class:`~repro.sim.classical.Support` (the final state of a basis-input
run that ended on its support) without building its register: the
draws search the cumulative distribution over the support's sorted
indices, which is the register's at those indices, so a seed draws the
same outcomes from either form of one state.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from ..qudits import Qudit
from .classical import Support
from .kernels import mixed_radix_weights
from .state import StateVector

#: Auto-chunking cap of the counts sampler: flat outcome draws held in
#: memory per pass.  2^20 int64 draws is 8 MB — large enough to amortise
#: the per-chunk unique/merge, bounded however many shots are requested.
_AUTO_SHOT_CHUNK = 1 << 20


class MeasurementResult:
    """Samples from measuring a register in the computational basis.

    Two storage modes, one API:

    * **sample-backed** — ``MeasurementResult(wires, samples)`` holds
      the explicit ``(shots, wires)`` array (the historical form);
    * **counts-backed** — :meth:`from_counts` (what
      :func:`sample_counts` returns) holds only the distinct outcomes
      and their multiplicities, in lexicographic outcome order.

    ``counts()`` / ``probability_of`` / ``most_common`` are identical
    across modes; ``samples`` on a counts-backed result materialises a
    deterministic array (outcomes in lexicographic order, each repeated
    by its count) — the multiset of rows is faithful, the shot *order*
    is not, because it was never drawn.
    """

    def __init__(
        self,
        wires: Sequence[Qudit],
        samples: np.ndarray | None = None,
        *,
        outcomes: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> None:
        self._wires = list(wires)
        if (samples is None) == (outcomes is None):
            raise ValueError(
                "provide either samples or outcomes/counts, not both"
            )
        if samples is not None:
            self._samples = np.asarray(samples, dtype=np.int64)
            if self._samples.ndim != 2 or self._samples.shape[1] != len(
                self._wires
            ):
                raise ValueError(
                    f"samples shape {self._samples.shape} does not match "
                    f"{len(self._wires)} wires"
                )
            self._outcomes = None
            self._counts = None
            self._shots = self._samples.shape[0]
        else:
            outcomes = np.asarray(outcomes, dtype=np.int64)
            counts = np.asarray(counts, dtype=np.int64)
            if outcomes.ndim != 2 or outcomes.shape[1] != len(self._wires):
                raise ValueError(
                    f"outcomes shape {outcomes.shape} does not match "
                    f"{len(self._wires)} wires"
                )
            if counts.shape != (outcomes.shape[0],):
                raise ValueError(
                    f"counts shape {counts.shape} does not match "
                    f"{outcomes.shape[0]} outcomes"
                )
            if counts.size and counts.min() < 1:
                raise ValueError("outcome counts must be positive")
            if outcomes.shape[0] > 1:
                order = np.lexsort(outcomes.T[::-1])
                outcomes = outcomes[order]
                counts = counts[order]
            self._samples = None
            self._outcomes = outcomes
            self._counts = counts
            self._shots = int(counts.sum())

    @classmethod
    def from_counts(
        cls,
        wires: Sequence[Qudit],
        counts: "Mapping[Sequence[int], int] | Counter",
    ) -> "MeasurementResult":
        """A counts-backed result from an outcome -> count mapping."""
        wires = list(wires)
        outcomes = np.array(
            [list(outcome) for outcome in counts], dtype=np.int64
        ).reshape(len(counts), len(wires))
        values = np.array(
            [int(count) for count in counts.values()], dtype=np.int64
        )
        return cls(wires, outcomes=outcomes, counts=values)

    @property
    def wires(self) -> list[Qudit]:
        """Measured wires, in sample-column order."""
        return list(self._wires)

    @property
    def shots(self) -> int:
        """Number of samples taken."""
        return self._shots

    @property
    def is_counts_backed(self) -> bool:
        """True when only outcome counts are stored, not per-shot rows."""
        return self._samples is None

    @property
    def samples(self) -> np.ndarray:
        """(shots, wires) array of measured levels.

        Counts-backed results materialise the array on demand: outcomes
        in lexicographic order, each repeated by its count.  Same
        multiset as any sample-backed equivalent; no per-shot order.
        """
        if self._samples is not None:
            return self._samples.copy()
        return np.repeat(self._outcomes, self._counts, axis=0)

    def _unique_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct outcome rows and their multiplicities."""
        if self._samples is None:
            return self._outcomes, self._counts
        if self._samples.shape[0] == 0 or self._samples.shape[1] == 0:
            # np.unique(axis=0) mishandles empty axes; the histogram is
            # trivial either way: no rows, or `shots` empty tuples.
            return (
                self._samples[: 1 if self._samples.shape[0] else 0],
                np.array(
                    [self._shots] if self._shots else [], dtype=np.int64
                ),
            )
        return np.unique(self._samples, axis=0, return_counts=True)

    def counts(self) -> Counter:
        """Histogram of outcomes as tuples of levels.

        Vectorized: one ``np.unique(axis=0)`` pass over the samples (or
        a direct read on counts-backed results) instead of a per-row
        Python loop — same Counter, built from ``U`` distinct outcomes
        rather than ``shots`` rows.
        """
        outcomes, counts = self._unique_counts()
        return Counter(
            {
                tuple(int(v) for v in row): int(count)
                for row, count in zip(outcomes, counts)
            }
        )

    def probability_of(self, outcome: Sequence[int]) -> float:
        """Empirical probability of one outcome."""
        target = tuple(outcome)
        return self.counts()[target] / self.shots

    def most_common(self, k: int = 1) -> list[tuple[tuple[int, ...], int]]:
        """The ``k`` most frequent outcomes with their counts."""
        return self.counts().most_common(k)


def _flat_distribution(
    state: "StateVector | Support",
) -> tuple[np.ndarray | None, np.ndarray]:
    """The joint basis indices a state may land on (None: all of them,
    in order) and their normalised float64 probabilities.

    A :class:`~repro.sim.classical.Support` lists its indices in
    increasing order, so its cumulative distribution is the register's
    at those indices and one uniform draw lands on the same outcome.
    """
    if isinstance(state, Support):
        index, amplitudes = state.index, state.amplitudes
    else:
        index, amplitudes = None, state.vector
    probabilities = np.abs(amplitudes.astype(np.complex128, copy=False)) ** 2
    return index, probabilities / probabilities.sum()


def _draw_flat_outcomes(
    cdf: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """``shots`` joint-basis indices by inverse-CDF sampling.

    One uniform draw per shot, binary-searched into the cumulative
    distribution.  This is the single draw primitive both samplers
    share: same rng state => same outcomes, and chunked calls
    concatenate to one big call because ``Generator.random`` consumes
    its stream sequentially.
    """
    uniform = rng.random(shots)
    indices = np.searchsorted(cdf, uniform, side="right")
    # Guard the cdf's float edge: cumsum can land a hair under 1.0.
    return np.minimum(indices, cdf.size - 1)


def _resolve_rng(
    rng: "int | np.random.Generator | None",
) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _marginal_columns(
    state: "StateVector | Support", wires: Sequence[Qudit] | None
) -> tuple[list[Qudit], np.ndarray]:
    """Requested wires and their column positions in state order."""
    order = state.wires
    wires = list(wires) if wires is not None else order
    position = {wire: k for k, wire in enumerate(order)}
    missing = [w for w in wires if w not in position]
    if missing:
        raise ValueError(f"wires {missing} not part of the state")
    return wires, np.array([position[w] for w in wires], dtype=np.intp)


def sample_state(
    state: StateVector,
    shots: int,
    rng: "int | np.random.Generator | None" = None,
    wires: Sequence[Qudit] | None = None,
) -> MeasurementResult:
    """Draw ``shots`` full-register samples from ``state``.

    Sampling is exact: outcomes are drawn from |amplitude|^2 over the
    joint computational basis, then marginalised to ``wires`` (default:
    every wire, in state order).  This is the per-shot reference
    surface — it materialises the ``(shots, wires)`` array.  Prefer
    :func:`sample_counts` when only the histogram is needed; for one
    seed the two agree exactly.
    """
    rng = _resolve_rng(rng)
    wires, positions = _marginal_columns(state, wires)
    order = state.wires
    _, probabilities = _flat_distribution(state)
    cdf = np.cumsum(probabilities)
    flat_outcomes = _draw_flat_outcomes(cdf, shots, rng)
    dims = np.array([w.dimension for w in order], dtype=np.int64)
    weights = mixed_radix_weights(dims)
    values = (flat_outcomes[:, None] // weights[None, :]) % dims[None, :]
    return MeasurementResult(wires, values[:, positions])


def sample_counts(
    state: "StateVector | Support",
    shots: int,
    rng: "int | np.random.Generator | None" = None,
    wires: Sequence[Qudit] | None = None,
    batch_size: int | None = None,
) -> MeasurementResult:
    """Outcome counts of ``shots`` measurements, without per-shot rows.

    Flat outcomes are drawn in chunks of ``batch_size`` (default: all
    at once up to ~1M draws), histogrammed per chunk with ``np.unique``
    and merged on the joint index; only the distinct outcomes are
    decoded to level tuples at the end.  Memory is
    ``O(batch_size + distinct outcomes)`` — never ``O(shots x wires)``.

    Deterministic for a fixed ``rng`` seed, and independent of
    ``batch_size``: chunked draws concatenate to the unchunked draw, and
    histogram merging is exact integer addition.  With the same seed the
    counts equal ``Counter`` of :func:`sample_state`'s rows exactly —
    the property the test battery pins.
    """
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    rng = _resolve_rng(rng)
    wires, positions = _marginal_columns(state, wires)
    order = state.wires
    support, probabilities = _flat_distribution(state)
    cdf = np.cumsum(probabilities)

    chunk = (
        min(shots, _AUTO_SHOT_CHUNK)
        if batch_size is None
        else max(1, int(batch_size))
    )
    accumulated: dict[int, int] = {}
    drawn = 0
    while drawn < shots:
        take = min(chunk, shots - drawn)
        flat = _draw_flat_outcomes(cdf, take, rng)
        if support is not None:
            flat = support[flat]
        distinct, multiplicity = np.unique(flat, return_counts=True)
        for index, count in zip(distinct, multiplicity):
            key = int(index)
            accumulated[key] = accumulated.get(key, 0) + int(count)
        drawn += take

    dims = np.array([w.dimension for w in order], dtype=np.int64)
    weights = mixed_radix_weights(dims)
    flat_indices = np.fromiter(
        accumulated.keys(), dtype=np.int64, count=len(accumulated)
    )
    flat_counts = np.fromiter(
        accumulated.values(), dtype=np.int64, count=len(accumulated)
    )
    values = (flat_indices[:, None] // weights[None, :]) % dims[None, :]
    columns = values[:, positions]

    # Marginalising can collide distinct joint outcomes; merge them on
    # the selected wires' own mixed-radix index.
    selected_dims = [w.dimension for w in wires]
    selected_weights = mixed_radix_weights(selected_dims)
    marginal = columns @ selected_weights
    distinct, inverse = np.unique(marginal, return_inverse=True)
    merged = np.zeros(distinct.size, dtype=np.int64)
    np.add.at(merged, inverse, flat_counts)
    outcomes = (
        distinct[:, None] // selected_weights[None, :]
    ) % np.array(selected_dims, dtype=np.int64)[None, :]
    return MeasurementResult(wires, outcomes=outcomes, counts=merged)
