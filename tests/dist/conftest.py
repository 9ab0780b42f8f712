"""Distribution-layer test helpers: synthetic stores, in-process peers."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.corpus import CorpusStore


def _assert_stores_identical(path_a, path_b):
    """Bit-level equality of two corpus stores (same helper contract as
    tests/corpus/test_session_resume.py and tests/farm/conftest.py)."""
    a, b = CorpusStore(path_a), CorpusStore(path_b)
    assert [dict(e) for e in a.entries()] == [dict(e) for e in b.entries()]
    for entry in a.entries():
        np.testing.assert_array_equal(a.load_input(entry["hash"]),
                                      b.load_input(entry["hash"]))
    cov_a, cov_b = a.coverage_states(), b.coverage_states()
    assert set(cov_a) == set(cov_b)
    for name in cov_a:
        np.testing.assert_array_equal(cov_a[name]["covered"],
                                      cov_b[name]["covered"])
    assert a.fuzz_state() == b.fuzz_state()


#: Fingerprint for synthetic (model-free) sync tests.
SYNTH_CONFIG = {"models": ["SYN_A"], "neurons": [8], "threshold": 0.25,
                "scaled": True, "task": "classification"}


def _synth_coverage(covered_idx, name="SYN_A", total=8):
    """A valid NeuronCoverageTracker state dict without a model."""
    covered = np.zeros(total, dtype=bool)
    covered[list(covered_idx)] = True
    return {"network": name, "total_neurons": total, "threshold": 0.25,
            "scaled": True, "tracked": np.ones(total, dtype=bool),
            "covered": covered}


def _make_store(path, n_entries, seed=0, covered_idx=(0,)):
    """A committed store with ``n_entries`` seeds + synthetic coverage."""
    rng = np.random.default_rng(seed)
    store = CorpusStore(path)
    store.bind_config(SYNTH_CONFIG)
    for i in range(n_entries):
        store.add_entry(rng.normal(size=(4, 4)), "seed", origin=int(i))
    store.commit(
        coverage_states=store.merge_coverage(
            {"SYN_A": _synth_coverage(covered_idx)}),
        fuzz_state=store.fuzz_state())
    return store


def _wait_for(predicate, timeout=120.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    return predicate()


@pytest.fixture
def assert_stores_identical():
    return _assert_stores_identical


@pytest.fixture
def synth_config():
    return dict(SYNTH_CONFIG)


@pytest.fixture
def make_store():
    return _make_store


@pytest.fixture
def synth_coverage():
    return _synth_coverage


@pytest.fixture
def wait_for():
    return _wait_for


@pytest.fixture
def model_source(mnist_trio, mnist_smoke):
    """Daemon ``model_source`` serving the session-cached mnist trio."""
    def source(dataset_name, scale, seed):
        assert dataset_name == "mnist"
        return mnist_trio, mnist_smoke
    return source


@pytest.fixture
def live_peer(tmp_path, model_source):
    """An in-process daemon + server pair, torn down after the test.

    Yields ``(daemon, server, port)``.  The server's accept loop runs
    on a background thread; the daemon's workers are NOT started — the
    store verbs are served directly by handler threads, and tests
    that need job execution call ``daemon.start()`` themselves.
    """
    from repro.farm import FarmDaemon, FarmServer
    daemon = FarmDaemon(tmp_path / "peer-root", workers=1,
                        model_source=model_source)
    server = FarmServer(daemon)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield daemon, server, server.port
    finally:
        server.shutdown()
        thread.join()
        server.close()
        daemon.drain(timeout=30.0)
