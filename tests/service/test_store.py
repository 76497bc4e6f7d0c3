"""ResultStore: persistence, corruption tolerance, and bounded size."""

import json

import numpy as np
import pytest

from repro.execution import execute
from repro.qudits import qubits
from repro.execution.results import RunResult
from repro.service import ResultStore
from repro.service.store import STORE_SCHEMA


@pytest.fixture()
def result():
    return execute("qutrit_tree", num_controls=3, backend="statevector")


KEY = ("fingerprint", "statevector", None, 3)
OTHER = ("fingerprint", "statevector", None, 4)


class TestRoundTrip:
    def test_put_get(self, tmp_path, result):
        store = ResultStore(tmp_path)
        assert store.put(KEY, result)
        back = store.get(KEY)
        np.testing.assert_allclose(back.state.tensor, result.state.tensor)
        assert store.stats.writes == 1
        assert store.stats.hits == 1

    def test_survives_new_store_instance(self, tmp_path, result):
        ResultStore(tmp_path).put(KEY, result)
        reopened = ResultStore(tmp_path)
        assert reopened.get(KEY) is not None
        assert len(reopened) == 1

    def test_miss_on_unknown_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(KEY) is None
        assert store.stats.misses == 1

    def test_clear(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(KEY, result)
        store.clear()
        assert len(store) == 0
        assert store.get(KEY) is None


class TestCorruptionTolerance:
    def test_truncated_entry_is_dropped_miss(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(KEY, result)
        store.path_for(KEY).write_text('{"schema": "repro-resu')
        assert store.get(KEY) is None
        assert store.stats.corrupt_dropped == 1
        assert not store.path_for(KEY).exists()

    def test_wrong_schema_is_dropped(self, tmp_path, result):
        store = ResultStore(tmp_path)
        store.put(KEY, result)
        envelope = json.loads(store.path_for(KEY).read_text())
        envelope["schema"] = "something-else/v1"
        store.path_for(KEY).write_text(json.dumps(envelope))
        assert store.get(KEY) is None
        assert store.stats.corrupt_dropped == 1

    def test_key_mismatch_never_serves_wrong_result(self, tmp_path, result):
        """A file moved between names (or a digest collision) must miss."""
        store = ResultStore(tmp_path)
        store.put(KEY, result)
        store.path_for(KEY).rename(store.path_for(OTHER))
        assert store.get(OTHER) is None
        assert store.stats.corrupt_dropped == 1

    def test_unserializable_result_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        bad = RunResult(
            backend="classical", wires=tuple(qubits(1)), values=(0,),
            metadata={"payload": object()},
        )
        assert store.put(KEY, bad) is False
        assert store.stats.write_failures == 1
        assert len(store) == 0


class TestBoundedSize:
    def test_entry_cap_evicts_oldest(self, tmp_path, result):
        store = ResultStore(tmp_path, max_entries=2)
        for index in range(4):
            store.put(("key", index), result)
        assert len(store) == 2
        assert store.stats.evictions == 2
        # The newest entries survive.
        assert store.get(("key", 3)) is not None

    def test_byte_cap_evicts(self, tmp_path, result):
        entry_bytes = None
        probe = ResultStore(tmp_path / "probe")
        probe.put(KEY, result)
        entry_bytes = probe.path_for(KEY).stat().st_size
        store = ResultStore(tmp_path / "real",
                            max_bytes=int(entry_bytes * 2.5))
        for index in range(4):
            store.put(("key", index), result)
        assert store.total_bytes() <= entry_bytes * 2.5
        assert store.stats.evictions >= 1

    def test_invalid_caps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=0)


def _sized(pad: int) -> RunResult:
    """A small classical result whose entry grows with ``pad``."""
    return RunResult(
        backend="classical", wires=tuple(qubits(1)), values=(0,),
        metadata={"pad": "x" * pad},
    )


class _DirectoryScans:
    """Counts every listing of a store directory."""

    def __init__(self, monkeypatch):
        self.count = 0
        import os
        from pathlib import Path

        for owner, attr in ((Path, "glob"), (Path, "iterdir"),
                            (Path, "rglob"), (os, "scandir"),
                            (os, "listdir")):
            original = getattr(owner, attr)

            def counted(*args, original=original, **kwargs):
                self.count += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)


class TestRecencyIndex:
    """Eviction reads an in-memory LRU index, not the directory."""

    def test_puts_and_gets_never_scan_the_directory(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path, max_entries=3)
        scans = _DirectoryScans(monkeypatch)
        for index in range(6):
            assert store.put(("key", index), _sized(10))
            assert store.get(("key", index)) is not None
            assert store.get(("missing", index)) is None
        assert scans.count == 0
        assert store.stats.evictions == 3
        assert len(store) == 3  # len() still reads the directory
        assert scans.count > 0

    def test_only_construction_scans(self, tmp_path, monkeypatch):
        ResultStore(tmp_path).put(KEY, _sized(10))
        scans = _DirectoryScans(monkeypatch)
        store = ResultStore(tmp_path)
        assert scans.count > 0
        scans.count = 0
        assert store.get(KEY) is not None
        assert store.put(OTHER, _sized(10))
        assert scans.count == 0

    def test_eviction_follows_access_order(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=3)
        for index in range(3):
            store.put(("key", index), _sized(10))
        # Reading key 0 makes key 1 the least recently used.
        assert store.get(("key", 0)) is not None
        store.put(("key", 3), _sized(10))
        assert not store.path_for(("key", 1)).exists()
        survivors = [index for index in range(4)
                     if store.path_for(("key", index)).exists()]
        assert survivors == [0, 2, 3]
        # Re-putting key 2 refreshes it: key 0 goes next.
        store.put(("key", 2), _sized(10))
        store.put(("key", 4), _sized(10))
        assert not store.path_for(("key", 0)).exists()
        assert store.path_for(("key", 2)).exists()

    def test_reopened_store_evicts_in_mtime_order(self, tmp_path):
        import os

        writer = ResultStore(tmp_path)
        for index in range(4):
            writer.put(("key", index), _sized(10))
        # Age the files against their write order: 2, 0, 3, 1.
        for age, index in enumerate((2, 0, 3, 1)):
            os.utime(writer.path_for(("key", index)),
                     (1_000_000 + age, 1_000_000 + age))
        store = ResultStore(tmp_path, max_entries=4)
        store.put(("key", 4), _sized(10))
        assert not store.path_for(("key", 2)).exists()
        store.put(("key", 5), _sized(10))
        assert not store.path_for(("key", 0)).exists()
        assert all(store.path_for(("key", index)).exists()
                   for index in (1, 3, 4, 5))

    def test_corrupt_and_deleted_entries_leave_the_index(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        store.put(("key", 0), _sized(10))
        store.put(("key", 1), _sized(10))
        store.path_for(("key", 0)).write_text("{ corrupt")
        assert store.get(("key", 0)) is None
        assert store.stats.corrupt_dropped == 1
        store.path_for(("key", 1)).unlink()
        assert store.get(("key", 1)) is None
        # Neither ghost counts against the caps: two fresh puts fit.
        store.put(("key", 2), _sized(10))
        store.put(("key", 3), _sized(10))
        assert store.stats.evictions == 0
        assert len(store) == 2
        store.put(("key", 4), _sized(10))
        assert store.stats.evictions == 1
        assert not store.path_for(("key", 2)).exists()

    def test_both_caps_hold_after_every_put(self, tmp_path):
        from random import Random

        rng = Random("store-caps")
        max_bytes = 4000
        store = ResultStore(tmp_path, max_bytes=max_bytes, max_entries=5)
        for _ in range(120):
            key = ("key", rng.randrange(12))
            if rng.random() < 0.3:
                store.get(key)
                continue
            assert store.put(key, _sized(rng.randrange(0, 900)))
            assert 1 <= len(store) <= 5
            assert store.total_bytes() <= max_bytes
            # The index tracks the directory exactly.
            assert len(store._index) == len(store)
            assert store._index_bytes == store.total_bytes()
        assert store.stats.evictions > 0


def test_concurrent_puts_and_gets_keep_the_index_exact(tmp_path):
    # More threads than cores, switching every microsecond: a lost
    # update to the recency index would leave it out of step with the
    # directory or let a cap slip.
    import sys
    import threading
    from random import Random

    store = ResultStore(tmp_path, max_bytes=6000, max_entries=6)
    threads_n = 8
    start = threading.Barrier(threads_n)
    errors: list = []

    def work(slot):
        rng = Random(slot)
        start.wait(timeout=10)
        try:
            for _ in range(40):
                key = ("key", rng.randrange(16))
                if rng.random() < 0.4:
                    store.get(key)
                else:
                    store.put(key, _sized(rng.randrange(0, 700)))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    assert len(store._index) == len(store) <= 6
    assert store._index_bytes == store.total_bytes() <= 6000
    assert store.stats.evictions > 0
