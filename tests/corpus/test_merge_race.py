"""Regression: a merge (a local pull) from a source mutating mid-merge.

Before the snapshot-based merge, iterating a live source's entry dict
while another thread appended to it could raise ``RuntimeError:
dictionary changed size during iteration``, and reading its coverage
while a concurrent commit ran its generation GC could raise
``FileNotFoundError`` on a just-deleted ``.npz``.  ``snapshot()`` fixes
both: a pull sees a crash-consistent prefix of the source and a later
pull picks up the rest.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.corpus import CorpusStore
from repro.dist import pull

CONFIG = {"models": ["SYN_A"], "neurons": [6], "threshold": 0.25,
          "scaled": True, "task": "classification"}


def _coverage(bit):
    covered = np.zeros(6, dtype=bool)
    covered[bit % 6] = True
    return {"SYN_A": {"network": "SYN_A", "total_neurons": 6,
                      "threshold": 0.25, "scaled": True,
                      "tracked": np.ones(6, dtype=bool),
                      "covered": covered}}


@pytest.mark.parametrize("total", [120])
def test_merge_survives_concurrent_writer(tmp_path, total):
    source = CorpusStore(tmp_path / "src")
    source.bind_config(CONFIG)
    rng = np.random.default_rng(0)
    for i in range(10):
        source.add_entry(rng.normal(size=(4, 4)), "seed", origin=int(i))
    source.commit(coverage_states=source.merge_coverage(_coverage(0)),
                  fuzz_state=None)

    dest = CorpusStore(tmp_path / "dest")
    errors = []
    done = threading.Event()

    def writer():
        # Same handle the merge reads from on disk: appends entries and
        # churns coverage generations (each commit GCs the previous
        # generation's .npz — the exact race snapshot() retries over).
        try:
            w = CorpusStore(tmp_path / "src")
            w.bind_config(CONFIG)
            wrng = np.random.default_rng(1)
            for i in range(10, total):
                w.add_entry(wrng.normal(size=(4, 4)), "seed",
                            origin=int(i))
                if i % 7 == 0:
                    w.commit(coverage_states=w.merge_coverage(
                        _coverage(i)), fuzz_state=None)
        except BaseException as error:     # noqa: BLE001
            errors.append(error)
        finally:
            done.set()

    thread = threading.Thread(target=writer)
    thread.start()
    merges = 0
    while not done.is_set():
        pull(dest, tmp_path / "src")       # must never raise mid-churn
        merges += 1
    thread.join()
    assert not errors
    assert merges >= 1

    # One final quiescent merge converges on everything the writer made.
    pull(dest, tmp_path / "src")
    src = CorpusStore(tmp_path / "src")
    assert {e["hash"] for e in dest.entries()} == \
        {e["hash"] for e in src.entries()}
    assert len(dest) == total
    np.testing.assert_array_equal(
        dest.coverage_states()["SYN_A"]["covered"],
        src.coverage_states()["SYN_A"]["covered"])


def test_snapshot_entries_cover_checkpoint(tmp_path):
    """snapshot() entry list is a superset of what its coverage saw —
    the crash-consistency direction that makes pull/merge safe."""
    store = CorpusStore(tmp_path / "s")
    store.bind_config(CONFIG)
    rng = np.random.default_rng(2)
    for i in range(5):
        store.add_entry(rng.normal(size=(4, 4)), "seed", origin=int(i))
    store.commit(coverage_states=store.merge_coverage(_coverage(1)),
                 fuzz_state=None)
    # Entries appended after the commit still show up (append-only log).
    store.add_entry(rng.normal(size=(4, 4)), "seed", origin=99)
    snap = store.snapshot()
    assert len(snap["entries"]) == 6
    assert snap["generation"] == 1
    assert set(snap["coverage"]) == {"SYN_A"}
