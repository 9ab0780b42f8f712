#!/usr/bin/env python
"""CI smoke check: kill a fuzz session mid-wave, resume, assert identity.

Runs a tiny two-round fuzz campaign twice into temp stores — once
uninterrupted, once killed mid-wave (simulated after part of a wave is
already persisted) and then resumed — and asserts the two corpora are
bit-identical: same entry records in the same order, same input bytes,
same merged coverage masks, same fuzz state.  This is the corpus
subsystem's resume contract (docs/CORPUS.md) at CLI-smoke scale; the
full matrix (workers ∈ {1, 2}, forward-pass accounting) lives in
``tests/corpus/test_session_resume.py``.

Two more phases follow.  ``merge_is_a_pull`` runs ``repro corpus
merge`` of the reference corpus into a fresh mirror twice, requires the
mirror to hold the reference's entries, input bytes and coverage, and
requires the second (no-op) merge to leave the coverage generation
alone.  ``distill_then_resume`` runs ``repro corpus distill`` on the
resumed corpus, requires the committed fuzz scheduler to name exactly
the entries the store still holds, and resumes one more round.

Exit code 0 on success, non-zero (with a diff summary) on any mismatch.

Usage:  PYTHONPATH=src python tools/fuzz_resume_smoke.py
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro import (FuzzSession, PAPER_HYPERPARAMS, constraint_for_dataset,
                   get_trio, load_dataset)
from repro.corpus import CorpusStore

ROUNDS = 2
WAVE_SIZE = 8
SHARD_SIZE = 4
ROOT_SEED = 11
POOL = 16


def make_session(corpus_dir, models, dataset, constraint):
    return FuzzSession(corpus_dir, models, PAPER_HYPERPARAMS["mnist"],
                       constraint, wave_size=WAVE_SIZE,
                       shard_size=SHARD_SIZE, seed=ROOT_SEED,
                       dataset=dataset, initial_seed_count=POOL)


def run_killed_then_resumed(corpus_dir, models, dataset, constraint):
    """First invocation dies mid-wave; second resumes to the target."""
    session = make_session(corpus_dir, models, dataset, constraint)
    real_add, test_adds = CorpusStore.add_entry, [0]

    def dying_add(self, x, kind, **meta):
        if kind == "test":
            test_adds[0] += 1
            if test_adds[0] > 1:   # die with the wave half-persisted
                raise KeyboardInterrupt("simulated kill")
        return real_add(self, x, kind, **meta)

    CorpusStore.add_entry = dying_add
    try:
        session.run(ROUNDS)
        raise SystemExit("smoke setup broken: the simulated kill never "
                         "fired (no wave produced two tests?)")
    except KeyboardInterrupt:
        pass
    finally:
        CorpusStore.add_entry = real_add

    resumed = make_session(corpus_dir, models, dataset, constraint)
    print(f"  killed mid-wave; resumed at round "
          f"{resumed.completed_rounds}, continuing to {ROUNDS}")
    resumed.run(ROUNDS)


def compare(ref_dir, other_dir):
    """How two corpora differ in entries, input bytes and coverage."""
    failures = []
    ref, other = CorpusStore(ref_dir), CorpusStore(other_dir)
    if [dict(e) for e in ref.entries()] != [dict(e) for e in
                                            other.entries()]:
        failures.append(
            f"entry records differ: {len(ref)} vs {len(other)} entries")
    else:
        for entry in ref.entries():
            a = ref.load_input(entry["hash"])
            b = other.load_input(entry["hash"])
            if not np.array_equal(a, b):
                failures.append(f"input bytes differ for {entry['hash']}")
    ref_cov, other_cov = ref.coverage_states(), other.coverage_states()
    if set(ref_cov) != set(other_cov):
        failures.append(f"coverage models differ: {sorted(ref_cov)} vs "
                        f"{sorted(other_cov)}")
    for name in sorted(set(ref_cov) & set(other_cov)):
        if not np.array_equal(ref_cov[name]["covered"],
                              other_cov[name]["covered"]):
            failures.append(f"merged coverage mask differs for {name}")
    return failures


def merge_is_a_pull(ref_dir, mirror_dir):
    """Merge the reference into a fresh mirror twice through the CLI."""
    from repro.cli import main as repro_main
    generations = []
    for _ in range(2):
        if repro_main(["corpus", "merge", mirror_dir, ref_dir]) != 0:
            return ["`repro corpus merge` failed"]
        generations.append(
            CorpusStore(mirror_dir, create=False).snapshot()["generation"])
    failures = compare(ref_dir, mirror_dir)
    if generations[1] != generations[0]:
        failures.append(f"a no-op merge moved the coverage generation "
                        f"{generations[0]} -> {generations[1]}")
    return failures


def distill_then_resume(corpus_dir, models, dataset, constraint):
    """Distill through the CLI, check the scheduler, fuzz one more round."""
    from repro.cli import main as repro_main
    if repro_main(["--scale", "smoke", "corpus", "distill", corpus_dir,
                   "mnist"]) != 0:
        return ["`repro corpus distill` failed"]
    store = CorpusStore(corpus_dir, create=False)
    scheduled = {record["hash"]
                 for record in store.fuzz_state()["scheduler"]["entries"]}
    held = {entry["hash"] for entry in store.entries()}
    failures = []
    if scheduled != held:
        failures.append(
            f"after distill the committed scheduler names "
            f"{len(scheduled - held)} record(s) the store no longer holds "
            f"and misses {len(held - scheduled)} entr(ies) it does")
    report = make_session(corpus_dir, models, dataset,
                          constraint).run(ROUNDS + 1)
    print(f"  distilled to {len(held)} entries; resumed "
          f"{report.waves_run} more wave(s)")
    if report.completed_rounds != ROUNDS + 1:
        failures.append(f"resume after distill stopped at round "
                        f"{report.completed_rounds}, not {ROUNDS + 1}")
    return failures


def main():
    print("fuzz-resume smoke: tiny corpus, "
          f"{ROUNDS} rounds, kill + resume, determinism assert")
    dataset = load_dataset("mnist", scale="smoke", seed=0)
    models = get_trio("mnist", scale="smoke", seed=0, dataset=dataset)
    constraint = constraint_for_dataset(dataset)
    with tempfile.TemporaryDirectory() as workdir:
        ref_dir, crash_dir = f"{workdir}/ref", f"{workdir}/crash"
        report = make_session(ref_dir, models, dataset,
                              constraint).run(ROUNDS)
        print(f"  reference: {report.waves_run} wave(s), "
              f"{report.new_tests} new test(s)")
        run_killed_then_resumed(crash_dir, models, dataset, constraint)
        failures = compare(ref_dir, crash_dir)
        if CorpusStore(ref_dir).fuzz_state() != \
                CorpusStore(crash_dir).fuzz_state():
            failures.append("fuzz checkpoint state differs")
        if failures:
            print("FAIL: interrupted+resumed corpus diverged from the "
                  "uninterrupted run:")
        else:
            print("OK: kill + resume is bit-identical to the "
                  "uninterrupted run")
            failures = merge_is_a_pull(ref_dir, f"{workdir}/mirror")
            if failures:
                print("FAIL: merge_is_a_pull:")
        if not failures:
            print("OK: a merge mirrors the reference and a no-op merge "
                  "commits nothing")
            failures = distill_then_resume(crash_dir, models, dataset,
                                           constraint)
            if failures:
                print("FAIL: distill_then_resume:")
    for failure in failures:
        print(f"  - {failure}")
    if failures:
        return 1
    print("OK: distill prunes the committed scheduler and fuzzing resumes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
