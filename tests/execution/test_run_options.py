"""Run options a backend cannot honour are refused up front, and shots
results carry counts only."""

import json
import warnings

import numpy as np
import pytest

from repro.execution import ResultCache, execute
from repro.noise.presets import SC
from repro.service import JobQueue, ResultStore
from repro.service.protocol import handle_request
from repro.service.serialization import result_from_json, result_to_json
from repro.toffoli.registry import build_toffoli

#: (backend, options) pairs the backend cannot honour.
REFUSED = [
    ("trajectory", {"trials": 0}),
    ("trajectory", {"trials": -3}),
    ("trajectory", {"shots": 10}),
    ("classical", {"shots": 10}),
    ("density", {"shots": 10}),
    ("statevector", {"trials": 5}),
    ("classical", {"trials": 5}),
    ("density", {"trials": 5}),
    ("statevector", {"shots": 0}),
]


class _CountingBuilder:
    """A build target that records whether it was ever built."""

    def __init__(self):
        self.builds = 0

    def __call__(self, **params):
        self.builds += 1
        return build_toffoli("qutrit_tree", 2)


def _noise(backend):
    return SC if backend in ("trajectory", "density") else None


@pytest.mark.parametrize("backend, options", REFUSED)
def test_execute_refuses_before_building(backend, options):
    target = _CountingBuilder()
    cache = ResultCache()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=repr(backend)):
            execute(target, backend=backend, noise_model=_noise(backend),
                    seed=1, cache=cache, **options)
    assert target.builds == 0
    assert len(cache) == 0


def test_execute_refuses_a_bad_sweep_point_before_any_build():
    target = _CountingBuilder()
    with pytest.raises(ValueError, match="'trajectory'"):
        execute(target, backend="trajectory", noise_model=SC, seed=1,
                sweep={"trials": [5, 0]})
    assert target.builds == 0


@pytest.mark.parametrize("backend, options", REFUSED)
def test_submit_refuses_before_building(backend, options):
    target = _CountingBuilder()
    with JobQueue(workers=1) as queue:
        with pytest.raises(ValueError, match=repr(backend)):
            queue.submit(target, backend=backend,
                         noise_model=_noise(backend), seed=1, **options)
        assert queue.stats.submitted == 0
    assert target.builds == 0


def test_protocol_returns_the_error():
    with JobQueue(workers=1) as queue:
        response = handle_request(queue, {
            "op": "submit", "id": 4, "target": "qutrit_tree",
            "build": {"num_controls": 2}, "backend": "trajectory",
            "noise": "SC", "trials": 0, "seed": 1,
        })
    assert response["ok"] is False
    assert response["id"] == 4
    assert "'trajectory'" in response["error"]
    assert "trials" in response["error"]


def test_honoured_options_still_run():
    result = execute("qutrit_tree", num_controls=2, backend="trajectory",
                     noise_model=SC, trials=1, seed=1)
    assert result.estimate.trials == 1


class TestCountsOnlyShots:
    def test_shots_result_has_counts_and_no_state(self):
        result = execute("qutrit_tree", num_controls=3,
                         backend="statevector", initial=(1, 1, 1, 0),
                         shots=50, seed=3)
        assert result.state is None
        assert result.measurements.counts() == {(1, 1, 1, 1): 50}
        assert result.probability_of((1, 1, 1, 1)) == 1.0

    def test_result_without_shots_keeps_its_state(self):
        result = execute("qutrit_tree", num_controls=3,
                         backend="statevector", initial=(1, 1, 1, 0))
        assert result.state is not None
        assert result.measurements is None
        assert result.probability_of((1, 1, 1, 1)) == pytest.approx(1.0)

    def test_shots_result_round_trips_json_and_store(self, tmp_path):
        result = execute("qutrit_tree", num_controls=3,
                         backend="statevector", shots=64, seed=7)
        text = result_to_json(result)
        assert json.loads(text)["state"] is None
        back = result_from_json(text)
        assert back.state is None
        assert back.measurements.counts() == result.measurements.counts()
        store = ResultStore(tmp_path)
        key = ("fingerprint", "statevector", None, 64, 7)
        assert store.put(key, result)
        stored = store.get(key)
        assert stored.state is None
        assert stored.measurements.counts() == result.measurements.counts()
        assert store.path_for(key).stat().st_size < 2000

    def test_shots_state_matches_a_stateless_rerun(self):
        # The counts-only result loses nothing the caller cannot get
        # back by running without shots.
        with_shots = execute("qutrit_tree", num_controls=3,
                             backend="statevector", shots=20, seed=1)
        state = execute("qutrit_tree", num_controls=3,
                        backend="statevector").state
        assert with_shots.wires == tuple(state.wires)
        probabilities = np.abs(state.vector) ** 2
        assert all(
            probabilities[np.ravel_multi_index(
                outcome, [w.dimension for w in state.wires]
            )] > 0
            for outcome in with_shots.measurements.counts()
        )
