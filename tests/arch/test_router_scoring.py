"""Parity of the lookahead router's incremental SWAP scoring.

The router prices each candidate SWAP by adjusting the front and window
distance sums for the gates on the (at most two) wires it moves.  The
oracle here recomputes every distance from scratch under the placement
the SWAP would produce, and the two must agree exactly — scores and the
chosen SWAP, tie-breaks included — on seeded random placements, fronts
and windows.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.arch.router import LookaheadRouter, RouterConfig, _RoutingState
from repro.arch.routing import swap_gate
from repro.arch.topology import grid_2d, heavy_hex, line, ring

TOPOLOGIES = {
    "line": line(9),
    "grid_2d": grid_2d(3, 3),
    "ring": ring(8),
    "heavy_hex": heavy_hex(2, 2),
}


def _oracle_score(config, front, window, where, occupant, table, decay,
                  swap):
    """The score of ``swap`` from a full recomputation."""
    site_a, site_b = swap
    after = list(where)
    if occupant[site_a] >= 0:
        after[occupant[site_a]] = site_b
    if occupant[site_b] >= 0:
        after[occupant[site_b]] = site_a

    def dist(pair):
        return table[after[pair[0]]][after[pair[1]]]

    total = sum(dist(pair) for pair in front) / len(front)
    if window:
        total += (
            config.lookahead_weight
            * sum(dist(pair) for pair in window)
            / len(window)
        )
    return total * (1.0 + decay.get(site_a, 0.0) + decay.get(site_b, 0.0))


def _oracle_candidates(front, where, topology):
    active = {where[w] for pair in front for w in pair}
    return sorted(
        {
            (min(site, other), max(site, other))
            for site in active
            for other in topology.neighbors(site)
        }
    )


def _random_case(rng: Random, topology):
    """A placement (some sites empty), a wire-disjoint front, a window
    that may repeat wires, per-site decay and a last SWAP."""
    num_wires = rng.randint(2, topology.size)
    where = rng.sample(range(topology.size), num_wires)
    wires = list(range(num_wires))
    rng.shuffle(wires)
    front = [
        (wires[2 * k], wires[2 * k + 1])
        for k in range(rng.randint(1, num_wires // 2))
    ]
    window = [
        tuple(rng.sample(range(num_wires), 2))
        for _ in range(rng.randint(0, 16))
    ]
    decay = {
        site: 0.01 * rng.randint(1, 3)
        for site in range(topology.size)
        if rng.random() < 0.3
    }
    return where, front, window, decay


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
def test_incremental_scores_match_full_recomputation(kind):
    topology = TOPOLOGIES[kind]
    table = topology.distance_table()
    config = RouterConfig()
    router = LookaheadRouter(config)
    rng = Random(f"router-scoring-{kind}")
    empty_site_swaps = both_wires_move = ties = 0
    for _ in range(300):
        where, front, window, decay = _random_case(rng, topology)
        state = _RoutingState(list(where), topology.size, swap_gate(2))
        scores = router._swap_scores(front, window, state, topology, decay)
        candidates = _oracle_candidates(front, where, topology)
        assert [pair for pair, _ in scores] == candidates
        for pair, value in scores:
            expected = _oracle_score(
                config, front, window, where, state.occupant, table,
                decay, pair,
            )
            assert value == expected, (pair, value, expected)
            moving = {state.occupant[site] for site in pair}
            empty_site_swaps += -1 in moving
            both_wires_move += any(
                set(gate) == moving for gate in front + window
            )
        values = [value for _, value in scores]
        ties += len(values) != len(set(values))

        last_swap = rng.choice([None, *candidates])
        best = None
        for pair, value in scores:
            if pair != last_swap and (best is None or value < best[1]):
                best = (pair, value)
        expected_choice = last_swap if best is None else best[0]
        choice = router._best_swap(
            front, window, state, topology, decay, last_swap
        )
        assert choice == expected_choice
        # Scoring never moves the placement.
        assert state.where == where
    assert empty_site_swaps and both_wires_move and ties


def test_reversing_swap_is_taken_only_when_alone():
    topology = line(2)
    state = _RoutingState([0, 1], 2, swap_gate(2))
    router = LookaheadRouter()
    front = [(0, 1)]
    assert router._best_swap(front, [], state, topology, {}, (0, 1)) == (
        0, 1
    )
